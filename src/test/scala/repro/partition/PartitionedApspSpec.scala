package repro.partition

import repro.{SparkSpec, TestKit}
import repro.core.{DataGraph, LocalRef, SlenOps}

/** Theorem 3 on the one SLen kernel. No edge crosses two combined label
  * partitions (Algorithm 4), so SLen over the whole graph already is SLen
  * per combined partition: the theorem holds trivially, and no method
  * scopes the kernel. These cases check that the kernel finds paths that
  * leave and re-enter a label partition, gives ∞ across disconnected
  * combined partitions, and equals the brute-force reference.
  */
class PartitionedApspSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8

  private def apsp(g: DataGraph): Map[(Long, Long), Int] =
    TestKit.collectSlen(SlenOps(cap).fullApsp(spark, g))

  /** Two random graphs over disjoint label sets, side by side, so the label
    * partition has at least two combined components.
    */
  private def twoComponentGraph(seed: Int): TestKit.LocalGraph = {
    def half(s: Long, n: Int) =
      TestKit.randomGraph(s, n = n, m = 35 + seed * 4, nLabels = 2 + seed % 2,
                          homophily = 0.5 + 0.04 * seed)
    val a   = half(seed * 13L, 13 + seed)
    val b   = half(seed * 13L + 1, 13 + seed)
    val off = a.nodes.size.toLong
    TestKit.LocalGraph(
      a.nodes ++ b.nodes.map { case (id, l) => (id + off, s"B$l") },
      a.edges ++ b.edges.map { case (s, d) => (s + off, d + off) })
  }

  test("Example 14/15 analogue: cross-partition distances via bridges") {
    // P_SE chain 1->2->3->4, SE2 -> TE1, TE chain 20->21->22.
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "SE"), (2L, "SE"), (3L, "SE"), (4L, "SE"),
          (20L, "TE"), (21L, "TE"), (22L, "TE")),
      Seq((1L, 2L), (2L, 3L), (3L, 4L), (2L, 20L), (20L, 21L), (21L, 22L))
    )
    val got = apsp(g)
    // Table IX shape: SE2 reaches TE1/TE2/TE3 at 1/2/3; SE1 at 2/3/4.
    assert(got((2L, 20L)) == 1 && got((2L, 21L)) == 2 && got((2L, 22L)) == 3)
    assert(got((1L, 20L)) == 2 && got((1L, 21L)) == 3 && got((1L, 22L)) == 4)
    // SE3/SE4 cannot reach P_TE.
    assert(!got.contains((3L, 20L)) && !got.contains((4L, 20L)))
  }

  test("disconnected combined partitions: cross distances are infinite") {
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B"), (4L, "B")),
      Seq((1L, 2L), (3L, 4L))
    )
    assert(LabelPartition.combinedComponents(g).values.toSet.size == 2)
    assert(apsp(g) == Map((1L, 1L) -> 0, (2L, 2L) -> 0, (3L, 3L) -> 0, (4L, 4L) -> 0,
                          (1L, 2L) -> 1, (3L, 4L) -> 1))
  }

  test("path leaving and re-entering a partition is found (Alg 4 combination)") {
    // A1 -> B1 -> A2: shortest A1->A2 exits partition A.
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B")),
      Seq((1L, 3L), (3L, 2L))
    )
    assert(apsp(g)((1L, 2L)) == 2)
  }

  test("sources not present in the graph are ignored") {
    val g = DataGraph.fromLocal(spark, Seq((1L, "A")), Seq.empty)
    assert(SlenOps(cap).recompute(spark, g)(Seq(99L).toDF("id")).isEmpty)
  }

  for (seed <- 1 to 10)
    test(s"equals global join-BFS APSP on random graph (seed=$seed)") {
      val lg = twoComponentGraph(seed)
      val g  = lg.toDataGraph(spark)
      val comp = LabelPartition.combinedComponents(g)
      assert(comp.values.toSet.size >= 2)
      val got = apsp(g)
      assert(got == LocalRef.apsp(lg.nodeIds, lg.edges, cap))
      // ∞ across combined partitions: no finite row joins two of them.
      val compOf = lg.nodes.map { case (id, l) => id -> comp(l) }.toMap
      assert(got.keySet.forall { case (s, d) => compOf(s) == compOf(d) })
    }
}
