package repro.core

import repro.{Oracle, SparkSpec, TestKit}
import repro.sssp.IncApsp

/** The Spark BGS fixpoint vs the brute-force reference and the DuckDB
  * oracle for the label-candidate step, on the inputs a pass can get:
  * multi-partition SLen, lazy updated graphs, shared and absent labels.
  */
class BgsSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8

  private def run(lg: TestKit.LocalGraph, p: PatternGraph): Map[String, Set[Long]] = {
    val g    = lg.toDataGraph(spark)
    val slen = SlenOps(cap).fullApsp(spark, g)
    TestKit.collectMatches(Bgs.run(spark, g, p, slen, cap), p)
  }

  test("labelCandidates match the DuckDB join oracle") {
    val lg = TestKit.randomGraph(31, n = 30, m = 80)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, seed = 32, nNodes = 4, nEdges = 4)
    Oracle.assertEquivalent(
      Rows.matchFrame(spark, Bgs.labelCandidates(Rows.nodes(g), p)),
      "SELECT p.pu AS pu, n.id AS v FROM pnodes p JOIN nodes n ON p.plabel = n.label",
      "nodes" -> g.nodes, "pnodes" -> p.nodes.map(n => (n.id, n.label)).toDF("pu", "plabel")
    )
  }

  test("a BGS pass on a checkpointed SLen is one Spark job") {
    // A pass with a shuffle (a candidate join, a grouped task) takes more.
    val lg    = TestKit.randomGraph(41, n = 30, m = 90)
    val g     = lg.toDataGraph(spark)
    val p     = TestKit.randomPattern(lg, seed = 42, nNodes = 4, nEdges = 5)
    val slen  = SlenOps(cap).fullApsp(spark, g)
    val cand0 = Bgs.labelCandidates(Rows.nodes(g), p)
    assert(TestKit.countJobs(spark)(Bgs.matchFixpoint(cand0, p, Rows.slen(slen), cap)) == 1)
    assert(TestKit.countJobs(spark)(Bgs.run(spark, g, p, slen, cap)) == 1)
  }

  test("one-job pass matches LocalRef on the spliced SLen of an edge delete") {
    val ops = SlenOps(cap)
    for (seed <- 1 to 3) {
      val lg     = TestKit.randomGraph(50L + seed, n = 30, m = 90)
      val g      = lg.toDataGraph(spark)
      val p      = TestKit.randomPattern(lg, seed = 60L + seed, nNodes = 4, nEdges = 5)
      val slen   = ops.fullApsp(spark, g)
      val (a, b) = lg.edges(seed * 7)
      val g2     = g.deleteEdge(a, b)
      // The kernel's SLen has one partition; spread it so that the pass's
      // `coalesce(1)` still reads several.
      val s2     = Rows.slenFrame(spark, IncApsp.deleteEdgeStep(Rows.slen(slen), a, b, TestKit.fresh(g2, cap)).slen)
        .repartition(3)
      assert(s2.rdd.getNumPartitions > 1)
      val lg2 = lg.copy(edges = lg.edges.filterNot(_ == ((a, b))))
      assert(TestKit.collectMatches(Bgs.run(spark, g2, p, s2, cap), p) ==
             LocalRef.gpnm(lg2.nodes, lg2.edges, p, cap))
    }
  }

  test("one-job pass matches LocalRef on a lazy graph after insertNode and removeNode") {
    val lg   = TestKit.randomGraph(71, n = 30, m = 90)
    val p    = TestKit.randomPattern(lg, seed = 72, nNodes = 4, nEdges = 5)
    val ups  = Seq(DataNodeIns(100L, lg.labels.head, Seq(1L, 2L), Seq(3L, 4L)), DataNodeDel(5L))
    val g0   = lg.toDataGraph(spark)
    val (g2, s2) = ups.foldLeft((Rows.graph(g0), TestKit.apsp(g0, cap))) {
      case ((g, s), u) => val (g1, step) = Engine.applyDataUpdate(g, s, u, cap); (g1, step.slen)
    }
    val lg2 = TestKit.applyDataLocal(lg, ups)
    assert(TestKit.collectMatches(Bgs.labelCandidates(g2.nodes, p), p) ==
           p.nodes.map(n => n.id -> lg2.nodes.collect { case (v, l) if l == n.label => v }.toSet).toMap)
    assert(TestKit.collectMatches(Bgs.run(g2.nodes, p, s2, cap), p) ==
           LocalRef.gpnm(lg2.nodes, lg2.edges, p, cap))
  }

  test("pattern nodes sharing a label each get every node of it") {
    val lg = TestKit.randomGraph(81, n = 30, m = 120, nLabels = 2)
    val g  = lg.toDataGraph(spark)
    val p  = PatternGraph(
      Seq(PNode("a1", "L0"), PNode("a2", "L0"), PNode("b", "L1")),
      Seq(PEdge("a1", "a2", 2), PEdge("a2", "b", 3), PEdge("b", "a1", 3)))
    val l0 = lg.nodes.collect { case (v, "L0") => v }.toSet
    val cands = TestKit.collectMatches(Bgs.labelCandidates(Rows.nodes(g), p), p)
    assert(cands("a1") == l0 && cands("a2") == l0 && l0.nonEmpty)
    val expect = LocalRef.gpnm(lg.nodes, lg.edges, p, cap)
    assert(expect.values.forall(_.nonEmpty))
    assert(run(lg, p) == expect)
  }

  test("a pattern label no data node has empties the result of a pass with edges") {
    val lg = TestKit.randomGraph(85, n = 30, m = 90)
    val p  = PatternGraph(
      Seq(PNode("a", "L0"), PNode("b", "L1"), PNode("z", "absent")),
      Seq(PEdge("a", "b", 3), PEdge("b", "a", 3), PEdge("a", "z", 2)))
    val g = lg.toDataGraph(spark)
    assert(Bgs.labelCandidates(Rows.nodes(g), p).filter(_._1 == "z").isEmpty())
    val got = run(lg, p)
    assert(got == Map("a" -> Set.empty, "b" -> Set.empty, "z" -> Set.empty))
    assert(got == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
  }

  test("a pattern with no edges matches LocalRef on a random graph") {
    val lg = TestKit.randomGraph(87, n = 30, m = 90)
    val p  = PatternGraph(Seq(PNode("a", "L0"), PNode("b", "L1"), PNode("c", "L0")), Nil)
    val expect = LocalRef.gpnm(lg.nodes, lg.edges, p, cap)
    assert(expect("a").nonEmpty && expect("a") == expect("c"))
    assert(run(lg, p) == expect)
  }

  test("Example-1-style IT-project pattern") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "PM"), (2L, "SE"), (3L, "TE"), (4L, "S"), (5L, "PM")),
      Seq((1L, 2L), (2L, 3L), (1L, 4L), (4L, 2L)))
    val p = PatternGraph(
      Seq(PNode("PM", "PM"), PNode("SE", "SE"), PNode("TE", "TE"), PNode("S", "S")),
      Seq(PEdge("PM", "SE", 3), PEdge("PM", "S", 3), PEdge("SE", "TE", 2), PEdge("S", "TE", 4)))
    assert(run(lg, p) == Map("PM" -> Set(1L), "SE" -> Set(2L), "TE" -> Set(3L), "S" -> Set(4L)))
  }

  test("bound too tight removes the match (and cascades)") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "C")),
      Seq((1L, 2L), (2L, 3L)))
    val pOk = PatternGraph(Seq(PNode("a", "A"), PNode("c", "C")), Seq(PEdge("a", "c", 2)))
    assert(run(lg, pOk) == Map("a" -> Set(1L), "c" -> Set(3L)))
    val pTight = PatternGraph(Seq(PNode("a", "A"), PNode("c", "C")), Seq(PEdge("a", "c", 1)))
    assert(run(lg, pTight) == Map("a" -> Set.empty, "c" -> Set.empty))
    // A self-loop asks every match for a successor match within 1 hop. On
    // the chain 0 -> ... -> 24 only the tail lacks one, so removal peels one
    // node per round (25 rounds); the 2-cycle 100 <-> 101 survives.
    val chain = TestKit.LocalGraph(
      ((0L to 24L) ++ Seq(100L, 101L)).map(i => (i, "A")),
      (0L to 23L).map(i => (i, i + 1)) ++ Seq((100L, 101L), (101L, 100L)))
    val pLoop = PatternGraph(Seq(PNode("a", "A")), Seq(PEdge("a", "a", 1)))
    val got   = run(chain, pLoop)
    assert(got == Map("a" -> Set(100L, 101L)))
    assert(got == LocalRef.gpnm(chain.nodes, chain.edges, pLoop, cap))
  }

  test("completeness rule: unmatched pattern node empties the result") {
    val lg = TestKit.LocalGraph(Seq((1L, "A"), (2L, "B")), Seq((1L, 2L)))
    val p  = PatternGraph(Seq(PNode("a", "A"), PNode("z", "Z")), Nil)
    assert(run(lg, p) == Map("a" -> Set.empty, "z" -> Set.empty))
  }

  test("star bound accepts any finite distance, rejects unreachable") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "A")),
      Seq((1L, 2L))) // node 3 is an isolated A
    val p = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")),
                         Seq(PEdge("a", "b", PatternGraph.Star)))
    assert(run(lg, p) == Map("a" -> Set(1L), "b" -> Set(2L)))
  }

  test("a finite bound above the cap is rejected before any Spark job") {
    val lg   = TestKit.LocalGraph(Seq((1L, "A"), (2L, "B")), Seq((1L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = SlenOps(cap).fullApsp(spark, g)
    val p    = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")), Seq(PEdge("a", "b", cap + 1)))
    val jobs = TestKit.countJobs(spark) {
      val e = intercept[IllegalArgumentException](Bgs.run(spark, g, p, slen, cap))
      assert(e.getMessage.contains(s"pattern edge a -> b has bound ${cap + 1} above the SLen cap $cap"))
    }
    assert(jobs == 0)
  }

  test("a star pass over an SLen with a row at the cap fails; below the cap it matches") {
    // On the chain 1 -> 2 -> 3 -> 4, SLen at cap 3 stops at (1, 4, 3) and
    // cannot show that nothing lies further.
    val lg    = TestKit.LocalGraph(Seq((1L, "A"), (2L, "X"), (3L, "X"), (4L, "B")),
                                   Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    val g     = lg.toDataGraph(spark)
    val p     = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")),
                             Seq(PEdge("a", "b", PatternGraph.Star)))
    val short = SlenOps(3).fullApsp(spark, g)
    val e = intercept[org.apache.spark.SparkException](Bgs.run(spark, g, p, short, 3))
    assert(e.getMessage.contains("a * bound reads SLen at its cap 3"))
    val full = SlenOps(4).fullApsp(spark, g)
    assert(TestKit.collectMatches(Bgs.run(spark, g, p, full, 4), p) == Map("a" -> Set(1L), "b" -> Set(4L)))
  }

  test("self distance never witnesses an edge; a 2-cycle does") {
    val p = PatternGraph(Seq(PNode("a1", "A"), PNode("a2", "A")), Seq(PEdge("a1", "a2", 2)))
    val lgNoCycle = TestKit.LocalGraph(Seq((1L, "A")), Nil)
    assert(run(lgNoCycle, p) == Map("a1" -> Set.empty, "a2" -> Set.empty))
    val lgCycle = TestKit.LocalGraph(Seq((1L, "A"), (2L, "A")), Seq((1L, 2L), (2L, 1L)))
    assert(run(lgCycle, p) == Map("a1" -> Set(1L, 2L), "a2" -> Set(1L, 2L)))
  }

  test("pattern with no edges matches by label only") {
    val lg = TestKit.LocalGraph(Seq((1L, "A"), (2L, "A"), (3L, "B")), Nil)
    val p  = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")), Nil)
    assert(run(lg, p) == Map("a" -> Set(1L, 2L), "b" -> Set(3L)))
  }

  test("witness must itself be a surviving candidate (recursive simulation)") {
    // a -> b (<=1), b -> c (<=1). B1 has a C in range; B2 does not.
    // A1 -> B2 only, so A1 must fall although B2 is label-eligible.
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "B"), (4L, "C"), (5L, "A")),
      Seq((1L, 3L), (2L, 4L), (5L, 2L)))
    val p = PatternGraph(
      Seq(PNode("a", "A"), PNode("b", "B"), PNode("c", "C")),
      Seq(PEdge("a", "b", 1), PEdge("b", "c", 1)))
    assert(run(lg, p) == Map("a" -> Set(5L), "b" -> Set(2L), "c" -> Set(4L)))
  }

  for (seed <- 1 to 10)
    test(s"matches LocalRef on random graph+pattern (seed=$seed)") {
      val lg = TestKit.randomGraph(seed * 3, n = 30 + seed, m = 90 + seed * 5)
      val p  = TestKit.randomPattern(lg, seed * 3 + 1, nNodes = 3 + seed % 3, nEdges = 4 + seed % 3)
      assert(run(lg, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
    }

  test("fixpoint is idempotent: running on its own output changes nothing") {
    val lg   = TestKit.randomGraph(91, n = 30, m = 90)
    val g    = lg.toDataGraph(spark)
    val p    = TestKit.randomPattern(lg, 92, nNodes = 4, nEdges = 5)
    val slen = SlenOps(cap).fullApsp(spark, g)
    val r1   = Bgs.run(spark, g, p, slen, cap)
    val r2   = Bgs.matchFixpoint(Rows.matches(r1), p, Rows.slen(slen), cap)
    assert(TestKit.collectMatches(r1, p) == TestKit.collectMatches(r2, p))
  }
}
