package repro.core

import repro.{Oracle, SparkSpec, TestKit}

/** The Spark BGS fixpoint vs the brute-force reference and the DuckDB
  * oracle for the label-candidate step.
  */
class BgsSpec extends SparkSpec {

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
      Bgs.labelCandidates(spark, g, p),
      "SELECT p.pu AS pu, n.id AS v FROM pnodes p JOIN nodes n ON p.plabel = n.label",
      "nodes" -> g.nodes, "pnodes" -> p.nodesDf(spark)
    )
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
    val r2   = Bgs.matchFixpoint(spark, r1, p, slen, cap)
    assert(TestKit.collectMatches(r1, p) == TestKit.collectMatches(r2, p))
  }
}
