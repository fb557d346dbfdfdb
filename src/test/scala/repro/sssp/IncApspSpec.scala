package repro.sssp

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestKit}
import repro.core._

/** Incremental SLen maintenance vs from-scratch recomputation, over every
  * update kind and random update sequences; diffs vs a DuckDB oracle.
  */
class IncApspSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8
  private val ops = SlenOps(cap, partitioned = false)
  private def recompute(g: DataGraph): IncApsp.Recompute = ops.recompute(spark, g)
  private def scratch(g: DataGraph): Map[(Long, Long), Int] =
    TestKit.collectSlen(ops.fullApsp(spark, g))

  test("insertEdge: new shortcut lowers distances") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A"), (3L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (2L, 3L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val got  = TestKit.collectSlen(IncApsp.insertEdge(slen, 0L, 3L, cap))
    assert(got((0L, 3L)) == 1)
    assert(got((0L, 1L)) == 1 && got((1L, 3L)) == 2) // untouched pairs keep values
  }

  test("insertEdge: no-op when a shorter path already exists") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val got  = TestKit.collectSlen(IncApsp.insertEdge(slen, 1L, 2L, cap))
    assert(got == scratch(g))
  }

  test("insertEdge respects the cap") {
    // chain of length cap ending at a; edge a->b would create paths > cap
    val n     = cap + 2
    val nodes = (0 until n).map(i => (i.toLong, "A"))
    val edges = (0 until n - 2).map(i => (i.toLong, (i + 1).toLong))
    val g     = TestKit.LocalGraph(nodes, edges).toDataGraph(spark)
    val slen  = ops.fullApsp(spark, g)
    val got   = TestKit.collectSlen(IncApsp.insertEdge(slen, (n - 2).toLong, (n - 1).toLong, cap))
    val g2    = g.insertEdge(spark, (n - 2).toLong, (n - 1).toLong)
    assert(got == scratch(g2))
    assert(got.values.forall(_ <= cap))
  }

  test("deleteEdge: removing a bridge cuts reachability") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.deleteEdge(1L, 2L)
    val got  = TestKit.collectSlen(IncApsp.deleteEdge(slen, 1L, 2L, recompute(g2)))
    assert(got == scratch(g2))
    assert(!got.contains((0L, 2L)))
  }

  test("deleteEdge: alternative path keeps distances finite") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.deleteEdge(0L, 2L)
    val got  = TestKit.collectSlen(IncApsp.deleteEdge(slen, 0L, 2L, recompute(g2)))
    assert(got == scratch(g2))
    assert(got((0L, 2L)) == 2)
  }

  test("deleteEdge of a non-shortest-path edge changes nothing") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.deleteEdge(1L, 2L) // 0->2 direct stays; 1->2 gone
    val got  = TestKit.collectSlen(IncApsp.deleteEdge(slen, 1L, 2L, recompute(g2)))
    assert(got == scratch(g2))
  }

  test("insertNode + attachments") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A")), Seq((0L, 1L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.insertNode(spark, 9L, "B", outTo = Seq(0L), inFrom = Seq(1L))
    var s2   = IncApsp.insertNode(spark, slen, 9L)
    s2 = IncApsp.insertEdge(s2, 9L, 0L, cap)
    s2 = IncApsp.insertEdge(s2, 1L, 9L, cap)
    assert(TestKit.collectSlen(s2) == scratch(g2))
  }

  test("deleteNode: node rows vanish and routed paths recompute") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A"), (3L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 3L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.removeNode(1L)
    val got  = TestKit.collectSlen(IncApsp.deleteNode(slen, 1L, recompute(g2)))
    assert(got == scratch(g2))
    assert(got.keySet.forall { case (s, t) => s != 1L && t != 1L })
    assert(got((0L, 3L)) == 1)
  }

  for (seed <- 1 to 6)
    test(s"random update sequence equals scratch recompute (seed=$seed)") {
      val lg   = TestKit.randomGraph(seed, n = 28, m = 80)
      val g0   = lg.toDataGraph(spark)
      val snap = repro.gen.UpdateGen.snapshot(g0)
      val ups  = repro.gen.UpdateGen.dataUpdates(snap, 2, 2, 1, 1, seed = seed * 7)
      inBothModes { par =>
        val mode = SlenOps(cap, par)
        var g    = g0
        var s    = mode.fullApsp(spark, g)
        ups.foreach { u =>
          val (g2, s2) = Engine.applyDataUpdate(spark, g, s, u, mode)
          g = g2; s = s2
        }
        assert(TestKit.collectSlen(s) == scratch(g))
      }
    }

  test("changedPairs: insert affects exactly the improved pairs") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val s2   = IncApsp.insertEdge(slen, 2L, 0L, cap)
    val changed = IncApsp.changedPairs(slen, s2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // new pairs: 1->0, 2->0, 2->1 (cycle closes)
    assert(changed == Set((1L, 0L), (2L, 0L), (2L, 1L)))
  }

  test("changedPairs matches DuckDB full-outer-diff oracle") {
    val lg   = TestKit.randomGraph(55, n = 24, m = 70)
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val (a, b) = lg.edges.head
    val g2   = g.deleteEdge(a, b)
    val s2   = IncApsp.deleteEdge(slen, a, b, recompute(g2))
    val diff: DataFrame = IncApsp.changedPairs(slen, s2)
    Oracle.assertEquivalent(
      diff,
      """SELECT COALESCE(o.src, n.src) AS src, COALESCE(o.dst, n.dst) AS dst,
        |       o.d AS d_old, n.d AS d_new
        |FROM oldslen o FULL OUTER JOIN newslen n
        |  ON o.src = n.src AND o.dst = n.dst
        |WHERE o.d IS DISTINCT FROM n.d""".stripMargin,
      "oldslen" -> slen,
      "newslen" -> s2
    )
  }

  test("affectedNodes are the endpoints of changed pairs") {
    val changed = Seq((1L, 2L, 3, 4), (2L, 5L, 1, 2)).toDF("src", "dst", "d_old", "d_new")
    val got = IncApsp.affectedNodes(changed).collect().map(_.getLong(0)).toSet
    assert(got == Set(1L, 2L, 5L))
  }

  test("no-op update produces an empty diff") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val s2   = IncApsp.insertEdge(slen, 1L, 2L, cap) // already at distance 1
    assert(IncApsp.changedPairs(slen, s2).isEmpty)
  }
}
