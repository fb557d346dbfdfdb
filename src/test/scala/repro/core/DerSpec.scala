package repro.core

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestKit}
import repro.sssp.IncApsp

/** DER-I / DER-II / DER-III detection (Algorithms 1–3) on constructed
  * scenarios mirroring Examples 7–9, plus the order-invariance theorems.
  * Every check takes the batch path `GpnmMethods.uaGpnm` takes:
  * `Der.context`, `candidateNodes` over it, the DER-III gate and
  * cancellation body, and `EhTree.build` for coverage.
  */
class DerSpec extends SparkSpec {

  private val cap = 8

  /** PM/TE mini-world: PM1 reaches both TEs, PM2 reaches neither. */
  private lazy val world = {
    val lg = TestKit.LocalGraph(
      Seq((1L, "PM"), (2L, "PM"), (3L, "TE"), (4L, "TE"), (5L, "S")),
      Seq((1L, 3L), (1L, 4L), (5L, 3L)))
    val g    = lg.toDataGraph(spark)
    val slen = SlenOps(cap).fullApsp(spark, g)
    (lg, g, slen)
  }
  private lazy val patNoEdges = PatternGraph(
    Seq(PNode("pm", "PM"), PNode("te", "TE"), PNode("s", "S")), Nil)
  private lazy val ctxNoEdges = {
    val (_, g, slen) = world
    Der.context(g, Bgs.run(spark, g, patNoEdges, slen, cap))
  }

  /** `Can_N(u)` against the edgeless pattern, its IQuery and the world's SLen. */
  private def canN(u: PatternUpdate): Set[Long] =
    Der.candidateNodes(spark, u, patNoEdges, ctxNoEdges, world._3, cap)

  /** SLen after the insert step of edge (a, b). */
  private def withEdge(slen: DataFrame, a: Long, b: Long): DataFrame =
    Rows.slenFrame(spark, IncApsp.insertEdgeStep(Rows.slen(slen), a, b, cap).slen)

  /** DER-III as `uaGpnm` decides it: the coverage gate, then cancellation. */
  private def cancels(uPi: PatEdgeIns, canPi: Set[Long], affDi: Set[Long],
                      slenNew: DataFrame): Boolean =
    Der.typeIIIGate(canPi, affDi) && Der.cancelsUnderNewSlen(spark, uPi, ctxNoEdges, slenNew, cap)

  test("DER-I: PatEdgeIns collects violating match pairs (Can_RN)") {
    // PM2 (2) reaches no TE; both TEs appear through the violating pairs.
    assert(canN(PatEdgeIns(PEdge("pm", "te", 1))) == Set(2L, 3L, 4L))
  }

  test("DER-I: each insert gets its own candidate set (Example 7 analogue)") {
    val tight = canN(PatEdgeIns(PEdge("pm", "te", 1)))
    val loose = canN(PatEdgeIns(PEdge("s", "te", 4)))
    // S1 reaches TE1 but not TE2 within 4: candidates {5,4}; not nested with
    // the PM case here, so check the exact sets instead.
    assert(loose == Set(5L, 4L))
    assert(tight == Set(2L, 3L, 4L))
  }

  test("DER-I: star-bound insert still flags unreachable pairs") {
    // PM2 still violates (no finite path), PM1 satisfies.
    assert(canN(PatEdgeIns(PEdge("pm", "te", PatternGraph.Star))) == Set(2L, 3L, 4L))
  }

  test("DER-I: PatEdgeDel collects excluded label candidates (Can_AN)") {
    // Pattern pm -> te <= 1 excludes PM2; deleting that edge makes PM2 addable.
    val (_, g, slen) = world
    val p      = PatternGraph(patNoEdges.nodes, Seq(PEdge("pm", "te", 1)))
    val iquery = Bgs.run(spark, g, p, slen, cap)
    assert(TestKit.collectMatches(iquery, p)("pm") == Set(1L))
    val can = Der.candidateNodes(spark, PatEdgeDel("pm", "te"), p, Der.context(g, iquery), slen, cap)
    assert(can == Set(2L))
  }

  test("DER-I: PatNodeIns candidates are all nodes of the new label") {
    assert(canN(PatNodeIns(PNode("te2", "TE"), PEdge("pm", "te2", 2))) == Set(3L, 4L))
  }

  test("DER-I: a finite bound above the cap is rejected, in the pattern or in the update") {
    val over = cap + 1
    val pOver = PatternGraph(patNoEdges.nodes, Seq(PEdge("pm", "te", over)))
    val cases: Seq[(PatternUpdate, PatternGraph)] = Seq(
      (PatEdgeDel("pm", "te"), pOver),
      (PatEdgeIns(PEdge("pm", "te", over)), patNoEdges),
      (PatNodeIns(PNode("te2", "TE"), PEdge("pm", "te2", over)), patNoEdges))
    for ((u, p) <- cases) {
      val e = intercept[IllegalArgumentException] {
        Der.candidateNodes(spark, u, p, ctxNoEdges, world._3, cap)
      }
      assert(e.getMessage.contains(s"bound $over above the SLen cap $cap"), u)
    }
  }

  test("DER-I: PatNodeDel candidates include the node's matches") {
    assert(canN(PatNodeDel("te")) == Set(3L, 4L)) // te's matches; no constrained neighbours
  }

  test("DER-II: affected nodes of an edge insert (Example 8 analogue)") {
    val (_, _, slen) = world
    val s2  = withEdge(slen, 2L, 3L)
    val aff = Der.affectedNodes(IncApsp.changedPairs(slen, s2))
    assert(aff == Set(2L, 3L)) // only the new pair 2->3
  }

  test("DER-II: a far-reaching insert affects more nodes (coverage)") {
    val (_, _, slen) = world
    val sBig   = withEdge(slen, 2L, 1L) // PM2 -> PM1 opens 2->{1,3,4}
    val affBig = Der.affectedNodes(IncApsp.changedPairs(slen, sBig))
    val sSmall   = withEdge(slen, 2L, 3L)
    val affSmall = Der.affectedNodes(IncApsp.changedPairs(slen, sSmall))
    assert(affBig == Set(1L, 2L, 3L, 4L))
    assert(affSmall.subsetOf(affBig)) // U_Da ⊵ U_Db
  }

  test("DER-II pairwise coverage via EhTree.build") {
    val uA = DataEdgeIns(2L, 1L); val uB = DataEdgeIns(2L, 3L)
    val tree = EhTree.build(Seq(uA -> Set(1L, 2L, 3L, 4L), uB -> Set(2L, 3L)))
    assert(tree.uneliminated == Seq(uA))
    assert(tree.find(uA.uid).get.children.map(_.update) == Seq(uB))
  }

  test("DER-I pairwise coverage via EhTree.build, with equal-set tie-break") {
    val u1 = PatEdgeIns(PEdge("pm", "te", 1))
    val u2 = PatEdgeIns(PEdge("s", "te", 4))
    val u3 = PatEdgeIns(PEdge("pm", "s", 2))
    val tree = EhTree.build(Seq(u1 -> Set(1L, 2L, 3L), u2 -> Set(2L, 3L), u3 -> Set(2L, 3L)))
    // u1 covers both; u2/u3 have equal sets — exactly one eliminates the other.
    assert(tree.uneliminated == Seq(u1))
    def under(a: Update, b: Update) = tree.find(a.uid).get.children.exists(_.update == b)
    assert(under(u2, u3) ^ under(u3, u2))
  }

  test("DER-III: cross-graph cancellation (Example 9 analogue)") {
    // Pattern insert pm->te<=1 would drop PM2, but the data insert 2->3
    // restores reachability: the two updates cancel.
    val (_, _, slen) = world
    val uPi = PatEdgeIns(PEdge("pm", "te", 1))
    val can = canN(uPi)
    val s1  = withEdge(slen, 2L, 3L)
    val s2  = withEdge(s1, 2L, 4L)
    val aff = Der.affectedNodes(IncApsp.changedPairs(slen, s2))
    assert(can.subsetOf(aff))
    assert(cancels(uPi, can, aff, s2))
  }

  test("DER-III rejects when the new SLen still violates the bound") {
    val (_, _, slen) = world
    val uPi = PatEdgeIns(PEdge("pm", "te", 1))
    val s2  = withEdge(slen, 2L, 3L) // 2->4 still unreachable
    val aff = Der.affectedNodes(IncApsp.changedPairs(slen, s2))
    assert(!cancels(uPi, canN(uPi), aff, s2))
  }

  test("DER-III rejects when Aff does not cover Can") {
    val (_, _, slen) = world
    val uPi = PatEdgeIns(PEdge("pm", "te", 1))
    assert(!cancels(uPi, canN(uPi), affDi = Set(3L), slen))
  }

  test("DER-I/III match brute force on random graphs and match sets") {
    // For a pattern edge insert (a, b, k): Can_N is the endpoints of the
    // match pairs that fail 1..k, and DER-III cancels iff no pair fails.
    val p = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")), Nil)
    var outcomes = Set.empty[Boolean]
    for (seed <- 1 to 5) {
      val lg   = TestKit.randomGraph(seed, n = 24, m = 60)
      val slen = SlenOps(cap).fullApsp(spark, lg.toDataGraph(spark))
      val ref  = LocalRef.apsp(lg.nodeIds, lg.edges, cap)
      val rnd  = new scala.util.Random(seed)
      def sample(k: Int): Set[Long] = rnd.shuffle(lg.nodeIds).take(k).toSet
      for (bound <- Seq(1, 2, 3, PatternGraph.Star)) {
        def witnessed(x: Long, y: Long) =
          ref.get((x, y)).exists(d => d >= 1 && d <= math.min(bound, cap))
        val x = lg.nodeIds(rnd.nextInt(lg.nodeIds.size))
        // A random pair of match sets, and one whose pairs all hold.
        val cases = Seq((sample(rnd.nextInt(7)), sample(rnd.nextInt(7))),
                        (Set(x), lg.nodeIds.filter(witnessed(x, _)).take(3).toSet))
        for ((left, right) <- cases) {
          val ctx     = Der.Context(Map.empty, Map("a" -> left, "b" -> right))
          val u       = PatEdgeIns(PEdge("a", "b", bound))
          val failing = for (v <- left; w <- right if !witnessed(v, w)) yield (v, w)
          val hint    = s"seed=$seed bound=$bound left=$left right=$right"
          assert(Der.candidateNodes(spark, u, p, ctx, slen, cap) ==
                   failing.flatMap { case (v, w) => Set(v, w) }, hint)
          val cancels = Der.cancelsUnderNewSlen(spark, u, ctx, slen, cap)
          assert(cancels == failing.isEmpty, hint)
          outcomes += cancels
        }
      }
    }
    assert(outcomes == Set(true, false)) // both verdicts were exercised
  }

  test("Theorem 1: Can_N detection is order-invariant") {
    val us: Seq[PatternUpdate] = Seq(
      PatEdgeIns(PEdge("pm", "te", 1)), PatEdgeIns(PEdge("s", "te", 4)),
      PatNodeDel("s"))
    val once  = us.map(canN)
    val again = us.reverse.map(canN).reverse
    assert(once == again)
  }

  test("Theorem 2: commuting data updates reach the same SLen in any order") {
    val (_, g, slen) = world
    def applySeq(us: Seq[DataUpdate]): Map[(Long, Long), Int] = {
      var cur = Rows.graph(g); var s = Rows.slen(slen)
      us.foreach { u =>
        val (g2, step) = Engine.applyDataUpdate(cur, s, u, cap); cur = g2; s = step.slen
      }
      TestKit.collectSlen(s)
    }
    val us: Seq[DataUpdate] = Seq(DataEdgeIns(2L, 3L), DataEdgeDel(5L, 3L), DataEdgeIns(4L, 5L))
    assert(applySeq(us) == applySeq(us.reverse))
  }
}
