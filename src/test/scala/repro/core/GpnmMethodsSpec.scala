package repro.core

import repro.{SparkSpec, TestKit}
import repro.bench.Harness
import repro.gen.UpdateGen

/** The paper's implicit correctness requirement: INC-GPNM, EH-GPNM,
  * UA-GPNM-NoPar and UA-GPNM all deliver the same SQuery as a from-scratch
  * GPNM on the updated graphs, under every kind of data and pattern update;
  * plus exact work counters (INC pays one pass per update, EH and UA one
  * per EH-Tree root). UA-GPNM and UA-GPNM-NoPar run the same code, so each
  * scenario calls it once.
  */
class GpnmMethodsSpec extends SparkSpec {

  private val cap = 8

  private case class Scenario(lg: TestKit.LocalGraph, g: DataGraph, p: PatternGraph,
                              slen: org.apache.spark.sql.DataFrame,
                              iquery: org.apache.spark.sql.DataFrame,
                              dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate]) {
    lazy val expected: Map[String, Set[Long]] = {
      val lgNew = TestKit.applyDataLocal(lg, dUps)
      val pNew  = Updates.applyPatternAll(p, pUps)
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap)
    }
    def pNew: PatternGraph = Updates.applyPatternAll(p, pUps)
  }

  private def scenario(seed: Int, nD: Int = 4, nP: Int = 3, nPatNodeDel: Int = 0): Scenario = {
    val lg = TestKit.randomGraph(seed, n = 32, m = 100)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, seed + 1, nNodes = 4, nEdges = 5)
    val (slen, iquery) = GpnmMethods.scratch(spark, g, p, cap)
    val snap = UpdateGen.snapshot(g)
    val dUps = UpdateGen.dataUpdates(snap, nEdgeIns = (nD + 1) / 2, nEdgeDel = nD / 2,
                                     nNodeIns = 1, nNodeDel = 1, seed = seed * 11)
    val pUps = UpdateGen.patternUpdates(p, snap.labels, nEdgeIns = 1, nEdgeDel = 1,
                                        nNodeIns = if (nP > 2) 1 else 0,
                                        nNodeDel = nPatNodeDel, seed = seed * 13)
    Scenario(lg, g, p, slen, iquery, dUps, pUps)
  }

  /** INC, EH and UA (NoPar runs the same code), as one signature. */
  private val methods = Seq(GpnmMethods.incGpnm _, GpnmMethods.ehGpnm _,
                            GpnmMethods.uaGpnm(_, _, _, _, _, _, _, _, false))

  test("scratch equals LocalRef") {
    val lg = TestKit.randomGraph(3, n = 30, m = 90)
    val p  = TestKit.randomPattern(lg, 4)
    val (_, iq) = GpnmMethods.scratch(spark, lg.toDataGraph(spark), p, cap)
    assert(TestKit.collectMatches(iq, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
  }

  private def assertAllEqualLocalRef(sc: Scenario): Unit = {
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(TestKit.collectMatches(inc.squery, sc.pNew) == sc.expected, "INC-GPNM")
    assert(TestKit.collectMatches(eh.squery, sc.pNew) == sc.expected, "EH-GPNM")
    assert(TestKit.collectMatches(ua.squery, sc.pNew) == sc.expected, "UA-GPNM")
  }

  for (seed <- 1 to 5)
    test(s"all four methods equal scratch on random scenario (seed=$seed)") {
      assertAllEqualLocalRef(scenario(seed * 17))
    }

  for (seed <- 1 to 3)
    test(s"all methods equal LocalRef under every kind of pattern update (seed=$seed)") {
      val sc = scenario(seed * 19, nPatNodeDel = 1)
      assert(sc.pUps.map(_.getClass).distinct.size == 4, sc.pUps)
      assertAllEqualLocalRef(sc)
    }

  for (seed <- 1 to 3)
    test(s"all methods equal LocalRef under batch-dependent pattern updates (seed=$seed)") {
      val sc   = scenario(seed * 23)
      val pUps = TestKit.dependentPatternUpdates(sc.p, sc.lg.labels, n = 6, seed = seed * 29L)
      assert(pUps.exists(TestKit.deletesInserted(sc.p)), s"no update deletes what an earlier one inserted: $pUps")
      assertAllEqualLocalRef(sc.copy(pUps = pUps))
    }

  for (seed <- 1 to 3)
    test(s"at Harness.Cap, every method equals the uncapped LocalRef on a graph the cap truncates (seed=$seed)") {
      val c  = Harness.Cap
      val lg = TestKit.randomGraph(seed * 31, n = 32, m = 64)
      val g  = lg.toDataGraph(spark)
      val p  = TestKit.randomPattern(lg, seed * 31 + 1, nNodes = 4, nEdges = 5)
      val (slen, iquery) = GpnmMethods.scratch(spark, g, p, c)
      // The cap truncates: SLen stops at d = cap, and some distance is longer.
      assert(TestKit.collectSlen(slen).values.exists(_ == c))
      assert(LocalRef.apsp(lg.nodeIds, lg.edges, lg.nodes.size).values.exists(_ > c))
      val dUps  = UpdateGen.dataUpdates(UpdateGen.snapshot(g), 2, 2, 1, 1, seed = seed * 37)
      val pUps  = TestKit.dependentPatternUpdates(p, lg.labels, n = 6, seed = seed * 41L)
      val lgNew = TestKit.applyDataLocal(lg, dUps)
      val pNew  = Updates.applyPatternAll(p, pUps)
      val expected = LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap = lgNew.nodes.size)
      methods.foreach { method =>
        val res = method(spark, g, p, iquery, slen, dUps, pUps, c)
        assert(TestKit.collectMatches(res.squery, pNew) == expected)
      }
    }

  test("a finite bound above the cap fails every method before any Spark job") {
    val sc     = scenario(111)
    val (a, b) = (sc.p.nodes(0).id, sc.p.nodes(1).id)
    val over   = cap + 1
    val batches: Seq[(PatternGraph, Seq[PatternUpdate])] = Seq(
      (sc.p.copy(edges = sc.p.edges.head.copy(bound = over) +: sc.p.edges.tail), Nil),
      (sc.p, Seq(PatEdgeIns(PEdge(a, b, over)))),
      (sc.p, Seq(PatNodeIns(PNode("q0", sc.lg.labels.head), PEdge(a, "q0", over)), PatNodeDel("q0"))))
    for ((p, pUps) <- batches; method <- methods) {
      val jobs = TestKit.countJobs(spark) {
        val e = intercept[IllegalArgumentException] {
          method(spark, sc.g, p, sc.iquery, sc.slen, sc.dUps, pUps, cap)
        }
        assert(e.getMessage.contains(s"bound $over above the SLen cap $cap"))
      }
      assert(jobs == 0, s"$pUps")
    }
  }

  test("a pattern update that reads an earlier one in the batch: insert q0, then delete its attach edge") {
    val sc     = scenario(107)
    val anchor = sc.p.nodes.head.id
    val pUps: Seq[PatternUpdate] = Seq(
      PatNodeIns(PNode("q0", sc.lg.labels.head), PEdge(anchor, "q0", 2)),
      PatEdgeDel(anchor, "q0"))
    assertAllEqualLocalRef(sc.copy(pUps = pUps))
  }

  test("RunStats are exact: INC one pass per update, EH and UA one per EH-Tree root") {
    val sc  = scenario(108, nPatNodeDel = 1)
    // Each data update's Aff_N, from the same SLen steps the methods take.
    var curG = sc.g
    var curS = sc.slen
    val affSets = sc.dUps.map { u =>
      val (g2, step) = Engine.applyDataUpdate(spark, curG, curS, u, SlenOps(cap))
      curG = g2; curS = step.slen
      u -> Der.affectedNodes(step.changed)
    }
    val ehTree = EhTree.build(affSets)
    // UA's full tree: DER-I sets on the pattern just before each update,
    // DER-III pairs, DER-II sets.
    val ctx     = Der.context(sc.g, sc.iquery)
    val canSets = sc.pUps.zip(sc.pUps.scanLeft(sc.p)(Updates.applyPattern)).map { case (u, pat) =>
      u -> Der.candidateNodes(spark, u, pat, ctx, sc.slen, cap)
    }
    val cross = canSets.flatMap {
      case (pu: PatEdgeIns, can) if Der.cancelsUnderNewSlen(spark, pu, ctx, curS, cap) =>
        affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.map { case (du, _) => (pu.uid, du.uid) }
      case _ => None
    }
    val uaTree = EhTree.build(affSets ++ canSets, cross)
    assert(uaTree.eliminated.nonEmpty, "the scenario should eliminate at least one update")

    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(inc.stats == GpnmMethods.RunStats(sc.dUps.size + sc.pUps.size, 0, 0))
    assert(eh.stats == GpnmMethods.RunStats(ehTree.roots.size + sc.pUps.size,
                                            ehTree.eliminated.size, ehTree.depth))
    assert(ua.stats == GpnmMethods.RunStats(uaTree.roots.size, uaTree.eliminated.size, uaTree.depth))
  }

  /** Spark jobs of INC, EH and UA on one batch, each run until its SQuery
    * is counted.
    */
  private def methodJobs(sc: Scenario): Seq[Int] =
    methods.map { method =>
      TestKit.countJobs(spark) {
        method(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap).squery.count()
      }
    }

  // The two batches below have the shapes of the benchmark's workloads.
  // Adding a Spark job to any method's path fails these pins.
  test("Spark jobs per method on a node insert with a pattern-edge insert and delete") {
    val sc   = scenario(109)
    val snap = UpdateGen.snapshot(sc.g)
    val dUps = UpdateGen.dataUpdates(snap, 0, 0, nNodeIns = 1, 0, seed = 1)
    val pUps = UpdateGen.patternUpdates(sc.p, snap.labels, nEdgeIns = 1, nEdgeDel = 1, 0, 0, seed = 6)
    assert(methodJobs(sc.copy(dUps = dUps, pUps = pUps)) == Seq(5, 6, 6))
  }

  test("Spark jobs per method on one data edge delete") {
    val sc   = scenario(110)
    val dUps = UpdateGen.dataUpdates(UpdateGen.snapshot(sc.g), 0, nEdgeDel = 1, 0, 0, seed = 2)
    assert(methodJobs(sc.copy(dUps = dUps, pUps = Nil)) == Seq(4, 5, 6))
  }

  test("INC-GPNM pays one fixpoint pass per update") {
    val sc  = scenario(101)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(inc.stats.fixpointPasses == sc.dUps.size + sc.pUps.size)
  }

  test("EH-GPNM never pays more passes than INC-GPNM") {
    val sc  = scenario(102)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(eh.stats.fixpointPasses <= inc.stats.fixpointPasses)
  }

  test("UA-GPNM never pays more passes than EH-GPNM") {
    val sc  = scenario(103)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(ua.stats.fixpointPasses <= eh.stats.fixpointPasses)
    assert(ua.stats.fixpointPasses >= 1)
  }

  test("no updates: every method returns IQuery unchanged") {
    val sc = scenario(104)
    val iq = TestKit.collectMatches(sc.iquery, sc.p)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap)
    assert(TestKit.collectMatches(inc.squery, sc.p) == iq)
    assert(TestKit.collectMatches(eh.squery, sc.p) == iq)
    assert(TestKit.collectMatches(ua.squery, sc.p) == iq)
    assert(inc.stats.fixpointPasses == 0 && ua.stats.fixpointPasses == 0)
  }

  test("data-only updates") {
    val sc = scenario(105)
    val ua = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, Nil, cap)
    val lgNew = TestKit.applyDataLocal(sc.lg, sc.dUps)
    assert(TestKit.collectMatches(ua.squery, sc.p) ==
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, sc.p, cap))
  }

  test("pattern-only updates") {
    val sc = scenario(106)
    val ua = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, sc.pUps, cap)
    val pNew = Updates.applyPatternAll(sc.p, sc.pUps)
    assert(TestKit.collectMatches(ua.squery, pNew) ==
      LocalRef.gpnm(sc.lg.nodes, sc.lg.edges, pNew, cap))
  }

  test("a cancelling Type III pair is eliminated and the result is exact") {
    // pm->te<=2 insert would drop PM2 under the old SLen; the single data
    // insert PM2->PM1 brings both TEs within 2 hops, so the pair cancels.
    val lg = TestKit.LocalGraph(
      Seq((1L, "PM"), (2L, "PM"), (3L, "TE"), (4L, "TE")),
      Seq((1L, 3L), (1L, 4L)))
    val g = lg.toDataGraph(spark)
    val p = PatternGraph(Seq(PNode("pm", "PM"), PNode("te", "TE")), Nil)
    val (slen, iquery) = GpnmMethods.scratch(spark, g, p, cap)
    val dUps: Seq[DataUpdate]    = Seq(DataEdgeIns(2L, 1L))
    val pUps: Seq[PatternUpdate] = Seq(PatEdgeIns(PEdge("pm", "te", 2)))
    val ua = GpnmMethods.uaGpnm(spark, g, p, iquery, slen, dUps, pUps, cap)
    assert(ua.stats.eliminated >= 1)
    val lgNew = TestKit.applyDataLocal(lg, dUps)
    val pNew  = Updates.applyPatternAll(p, pUps)
    assert(TestKit.collectMatches(ua.squery, pNew) ==
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap))
    assert(TestKit.collectMatches(ua.squery, pNew)("pm") == Set(1L, 2L))
  }
}
