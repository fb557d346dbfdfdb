package repro.sssp

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestKit}
import repro.core._

import scala.collection.mutable

/** Incremental SLen maintenance vs from-scratch recomputation, over every
  * update kind and random update sequences; diffs vs a DuckDB oracle; each
  * update kind's SLen step vs scratch and vs the whole-SLen diff.
  */
class IncApspSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8
  private val ops = SlenOps(cap, partitioned = false)
  private def recompute(g: DataGraph): IncApsp.Recompute = ops.recompute(spark, g)
  private def scratch(g: DataGraph): Map[(Long, Long), Int] =
    TestKit.collectSlen(ops.fullApsp(spark, g))

  private def rows(df: DataFrame): Set[(Long, Long, Option[Int], Option[Int])] =
    df.collect().map { r =>
      (r.getLong(0), r.getLong(1), Option(r.get(2)).map(_.asInstanceOf[Int]),
       Option(r.get(3)).map(_.asInstanceOf[Int]))
    }.toSet

  /** Applies `u` to `g0` as one SLen step in both modes and checks that the
    * step's SLen equals a from-scratch SLen of the updated graph and that
    * its changed pairs, and so its `Aff_N`, equal the diff of the whole old
    * and new SLen. Returns the step's `Aff_N` per mode.
    */
  private def checkStep(g0: DataGraph, u: DataUpdate): Seq[Set[Long]] = {
    val affs = mutable.Buffer.empty[Set[Long]]
    inBothModes { par =>
      val mode       = SlenOps(cap, par)
      val s0         = mode.fullApsp(spark, g0)
      val (g1, step) = Engine.applyDataUpdate(spark, g0, s0, u, mode)
      assert(TestKit.collectSlen(step.slen) == TestKit.collectSlen(mode.fullApsp(spark, g1)))
      val full = IncApsp.changedPairs(s0, step.slen)
      assert(rows(step.changed) == rows(full))
      val aff = Der.affectedNodes(step.changed)
      assert(aff == Der.affectedNodes(full))
      affs += aff
    }
    affs.toSeq
  }

  test("SLen step: edge insert") {
    val lg = TestKit.randomGraph(41, n = 24, m = 60)
    val (a, b) = (for (x <- lg.nodeIds; y <- lg.nodeIds
                       if x != y && !lg.edges.contains((x, y))) yield (x, y)).head
    assert(checkStep(lg.toDataGraph(spark), DataEdgeIns(a, b)).forall(_.nonEmpty))
  }

  test("SLen step: edge delete") {
    val lg = TestKit.randomGraph(42, n = 24, m = 60)
    val (a, b) = lg.edges.head
    assert(checkStep(lg.toDataGraph(spark), DataEdgeDel(a, b)).forall(_.contains(a)))
  }

  test("SLen step: node insert with two in- and two out-neighbours, paths beyond the cap") {
    // Chain 0 -> 1 -> ... -> 12; v gets 2 -> v, 5 -> v, v -> 6, v -> 12.
    val lg = TestKit.LocalGraph((0L to 12L).map(i => (i, "A")), (0L until 12L).map(i => (i, i + 1)))
    val g  = lg.toDataGraph(spark)
    val u  = DataNodeIns(100L, "B", outTo = Seq(6L, 12L), inFrom = Seq(2L, 5L))
    assert(checkStep(g, u).forall(aff => aff.contains(100L) && aff.contains(0L)))
    val got = TestKit.collectSlen(Engine.applyDataUpdate(spark, g, ops.fullApsp(spark, g), u, ops)._2.slen)
    assert(got((0L, 100L)) == 3) // through 2, not 5
    assert(got((0L, 12L)) == 4)  // 0 -> 1 -> 2 -> v -> 12, was 12 > cap
    // Through v, 0 reaches 11 in 3 + 1 + 5 = 9 > cap hops; along the chain in 11.
    assert(!got.contains((0L, 11L)))
  }

  test("SLen step: node delete") {
    val lg = TestKit.randomGraph(43, n = 24, m = 60)
    val v  = lg.edges.map(_._1).find(x => lg.edges.exists(_._2 == x)).get
    assert(checkStep(lg.toDataGraph(spark), DataNodeDel(v)).forall(_.contains(v)))
  }

  test("SLen step: a run of deletes leaves a checkpointed SLen") {
    // Each delete's SLen is a checkpoint, not one more filter and union on
    // the previous step's plan, so later reads never replay the whole run.
    val lg   = TestKit.randomGraph(44, n = 24, m = 60)
    val dels = lg.edges.take(3).map { case (a, b) => DataEdgeDel(a, b) } :+ DataNodeDel(lg.nodeIds.head)
    var g    = lg.toDataGraph(spark)
    var s    = ops.fullApsp(spark, g)
    dels.foreach { u =>
      val (g2, step) = Engine.applyDataUpdate(spark, g, s, u, ops)
      g = g2; s = step.slen
      assert(s.queryExecution.optimizedPlan.children.isEmpty, s"after $u")
    }
    assert(TestKit.collectSlen(s) == scratch(g))
  }

  test("SLen step: a no-op insert has an empty Aff_N") {
    val lg = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    // 0 -> 2 already has distance 1, so the duplicate edge changes nothing.
    assert(checkStep(lg.toDataGraph(spark), DataEdgeIns(0L, 2L)).forall(_.isEmpty))
  }

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
          val (g2, step) = Engine.applyDataUpdate(spark, g, s, u, mode)
          g = g2; s = step.slen
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
    assert(Der.affectedNodes(changed) == Set(1L, 2L, 5L))
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
