package repro.sssp

import repro.{Oracle, SparkSpec, TestKit}
import repro.core.{DataGraph, LocalRef, SlenOps}

/** The SLen BFS kernel vs the brute-force reference and the DuckDB
  * recursive-CTE oracle.
  */
class ApspBfsSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8

  /** Nodes `ids` with alternating labels, which the kernel must ignore. */
  private def graph(ids: Seq[Long], edges: Seq[(Long, Long)]): DataGraph =
    DataGraph.fromLocal(spark, ids.map(i => (i, s"L${i % 2}")), edges)

  private def apsp(g: DataGraph, cap: Int = cap): Map[(Long, Long), Int] =
    TestKit.collectSlen(SlenOps(cap).fullApsp(spark, g))

  test("single node, no edges: only the self row") {
    assert(apsp(graph(Seq(7L), Nil)) == Map((7L, 7L) -> 0))
  }

  test("two nodes, one edge: d=1 one way, unreachable the other") {
    val got = apsp(graph(Seq(1L, 2L), Seq((1L, 2L))))
    assert(got == Map((1L, 1L) -> 0, (2L, 2L) -> 0, (1L, 2L) -> 1))
  }

  test("directed chain: distances equal index difference") {
    val got = apsp(graph(0L to 5L, (0L to 4L).map(i => (i, i + 1))))
    for (i <- 0L to 5L; j <- i to 5L) assert(got((i, j)) == (j - i).toInt)
    assert(!got.contains((3L, 1L)))
  }

  test("cycle: self distance stays 0, wrap-around distances correct") {
    val got = apsp(graph(0L to 3L, Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L))))
    assert(got((0L, 0L)) == 0) // convention: self = 0, not cycle length
    assert(got((1L, 0L)) == 3)
    assert(got((3L, 1L)) == 2)
  }

  test("cap truncates long paths") {
    val got = apsp(graph(0L to 9L, (0L to 8L).map(i => (i, i + 1))), cap = 3)
    assert(got.contains((0L, 3L)) && !got.contains((0L, 4L)))
    assert(got.values.forall(_ <= 3))
  }

  test("fromSources restricts the source set") {
    val chain = graph(0L to 4L, (0L to 3L).map(i => (i, i + 1)))
    val lg    = TestKit.randomGraph(5, n = 30, m = 90)
    val full  = LocalRef.apsp(lg.nodeIds, lg.edges, cap)
    val got = TestKit.collectSlen(SlenOps(cap).recompute(spark, chain)(Seq(2L).toDF("id")))
    assert(got == Map((2L, 2L) -> 0, (2L, 3L) -> 1, (2L, 4L) -> 2))
    val some = TestKit.collectSlen(
      SlenOps(cap).recompute(spark, lg.toDataGraph(spark))(Seq(0L, 1L, 2L).toDF("id")))
    assert(some == full.filter { case ((s, _), _) => Set(0L, 1L, 2L).contains(s) })
  }

  test("empty source set yields empty result") {
    val g = graph(Seq(1L, 2L), Seq((1L, 2L)))
    assert(SlenOps(cap).recompute(spark, g)(Seq.empty[Long].toDF("id")).isEmpty)
  }

  for (seed <- 1 to 8)
    test(s"matches LocalRef on random graph (seed=$seed)") {
      val lg = TestKit.randomGraph(seed, n = 30 + seed * 3, m = 80 + seed * 10)
      assert(apsp(lg.toDataGraph(spark)) == LocalRef.apsp(lg.nodeIds, lg.edges, cap))
    }

  for (seed <- 1 to 3)
    test(s"matches DuckDB recursive-CTE oracle (seed=$seed)") {
      val g = TestKit.randomGraph(seed + 100, n = 24, m = 60).toDataGraph(spark)
      Oracle.assertEquivalent(
        SlenOps(cap).fullApsp(spark, g),
        s"""WITH RECURSIVE sp AS (
           |  SELECT id AS src, id AS dst, 0 AS d FROM nodes
           |  UNION
           |  SELECT sp.src, e.dst, sp.d + 1 AS d
           |  FROM sp JOIN edges e ON sp.dst = e.src
           |  WHERE sp.d < $cap
           |)
           |SELECT src, dst, MIN(d) AS d FROM sp GROUP BY src, dst""".stripMargin,
        "nodes" -> g.nodes.select("id"),
        "edges" -> g.edges
      )
    }
}
