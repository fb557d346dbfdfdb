package repro.sssp

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestKit}
import repro.core._

/** Incremental SLen maintenance vs from-scratch recomputation, over every
  * update kind and random update sequences; diffs vs a DuckDB oracle; each
  * update kind's SLen step vs scratch and vs the whole-SLen diff.
  */
class IncApspSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8
  private val ops = SlenOps(cap)
  private def recompute(g: DataGraph): IncApsp.Recompute = ops.recompute(spark, g)
  private def scratch(g: DataGraph): Map[(Long, Long), Int] =
    TestKit.collectSlen(ops.fullApsp(spark, g))

  private def rows(df: DataFrame): Set[(Long, Long, Option[Int], Option[Int])] =
    df.collect().map { r =>
      (r.getLong(0), r.getLong(1), Option(r.get(2)).map(_.asInstanceOf[Int]),
       Option(r.get(3)).map(_.asInstanceOf[Int]))
    }.toSet

  /** Applies `u` to `g0` as one SLen step and checks that the step's SLen
    * equals a from-scratch SLen of the updated graph and that its changed
    * pairs, and so its `Aff_N`, equal the diff of the whole old and new
    * SLen. Returns the step's `Aff_N`.
    */
  private def checkStep(g0: DataGraph, u: DataUpdate): Set[Long] = {
    val s0         = ops.fullApsp(spark, g0)
    val (g1, step) = Engine.applyDataUpdate(spark, g0, s0, u, ops)
    assert(TestKit.collectSlen(step.slen) == scratch(g1))
    val full = IncApsp.changedPairs(s0, step.slen)
    assert(rows(step.changed) == rows(full))
    val aff = Der.affectedNodes(step.changed)
    assert(aff == Der.affectedNodes(full))
    aff
  }

  test("SLen step: edge insert") {
    val lg = TestKit.randomGraph(41, n = 24, m = 60)
    val (a, b) = (for (x <- lg.nodeIds; y <- lg.nodeIds
                       if x != y && !lg.edges.contains((x, y))) yield (x, y)).head
    assert(checkStep(lg.toDataGraph(spark), DataEdgeIns(a, b)).nonEmpty)
  }

  test("SLen step: edge delete") {
    val lg = TestKit.randomGraph(42, n = 24, m = 60)
    val (a, b) = lg.edges.head
    assert(checkStep(lg.toDataGraph(spark), DataEdgeDel(a, b)).contains(a))
  }

  test("SLen step: node insert with two in- and two out-neighbours, paths beyond the cap") {
    // Chain 0 -> 1 -> ... -> 12; v gets 2 -> v, 5 -> v, v -> 6, v -> 12.
    val lg = TestKit.LocalGraph((0L to 12L).map(i => (i, "A")), (0L until 12L).map(i => (i, i + 1)))
    val g  = lg.toDataGraph(spark)
    val u  = DataNodeIns(100L, "B", outTo = Seq(6L, 12L), inFrom = Seq(2L, 5L))
    val aff = checkStep(g, u)
    assert(aff.contains(100L) && aff.contains(0L))
    val got = TestKit.collectSlen(Engine.applyDataUpdate(spark, g, ops.fullApsp(spark, g), u, ops)._2.slen)
    assert(got((0L, 100L)) == 3) // through 2, not 5
    assert(got((0L, 12L)) == 4)  // 0 -> 1 -> 2 -> v -> 12, was 12 > cap
    // Through v, 0 reaches 11 in 3 + 1 + 5 = 9 > cap hops; along the chain in 11.
    assert(!got.contains((0L, 11L)))
  }

  test("SLen step: node delete") {
    val lg = TestKit.randomGraph(43, n = 24, m = 60)
    val v  = lg.edges.map(_._1).find(x => lg.edges.exists(_._2 == x)).get
    assert(checkStep(lg.toDataGraph(spark), DataNodeDel(v)).contains(v))
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
    assert(checkStep(lg.toDataGraph(spark), DataEdgeIns(0L, 2L)).isEmpty)
  }

  test("insertEdge: new shortcut lowers distances") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A"), (3L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (2L, 3L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val got  = TestKit.collectSlen(IncApsp.insertEdgeStep(slen, 0L, 3L, cap).slen)
    assert(got((0L, 3L)) == 1)
    assert(got((0L, 1L)) == 1 && got((1L, 3L)) == 2) // untouched pairs keep values
  }

  test("insertEdge: no-op when a shorter path already exists") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val got  = TestKit.collectSlen(IncApsp.insertEdgeStep(slen, 1L, 2L, cap).slen)
    assert(got == scratch(g))
  }

  test("insertEdge respects the cap") {
    // chain of length cap ending at a; edge a->b would create paths > cap
    val n     = cap + 2
    val nodes = (0 until n).map(i => (i.toLong, "A"))
    val edges = (0 until n - 2).map(i => (i.toLong, (i + 1).toLong))
    val g     = TestKit.LocalGraph(nodes, edges).toDataGraph(spark)
    val slen  = ops.fullApsp(spark, g)
    val got   = TestKit.collectSlen(IncApsp.insertEdgeStep(slen, (n - 2).toLong, (n - 1).toLong, cap).slen)
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
    val got  = TestKit.collectSlen(IncApsp.deleteEdgeStep(slen, 1L, 2L, recompute(g2)).slen)
    assert(got == scratch(g2))
    assert(!got.contains((0L, 2L)))
  }

  test("deleteEdge: alternative path keeps distances finite") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.deleteEdge(0L, 2L)
    val got  = TestKit.collectSlen(IncApsp.deleteEdgeStep(slen, 0L, 2L, recompute(g2)).slen)
    assert(got == scratch(g2))
    assert(got((0L, 2L)) == 2)
  }

  test("deleteEdge of a non-shortest-path edge changes nothing") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.deleteEdge(1L, 2L) // 0->2 direct stays; 1->2 gone
    val got  = TestKit.collectSlen(IncApsp.deleteEdgeStep(slen, 1L, 2L, recompute(g2)).slen)
    assert(got == scratch(g2))
  }

  test("insertNode + attachments") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A")), Seq((0L, 1L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.insertNode(spark, 9L, "B", outTo = Seq(0L), inFrom = Seq(1L))
    var s2   = IncApsp.insertNodeStep(slen, 9L, Nil, Nil, cap).slen
    s2 = IncApsp.insertEdgeStep(s2, 9L, 0L, cap).slen
    s2 = IncApsp.insertEdgeStep(s2, 1L, 9L, cap).slen
    assert(TestKit.collectSlen(s2) == scratch(g2))
  }

  test("deleteNode: node rows vanish and routed paths recompute") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A"), (3L, "A")),
                                  Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 3L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val g2   = g.removeNode(1L)
    val got  = TestKit.collectSlen(IncApsp.deleteNodeStep(slen, 1L, recompute(g2)).slen)
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
      var g    = g0
      var s    = ops.fullApsp(spark, g)
      ups.foreach { u =>
        val (g2, step) = Engine.applyDataUpdate(spark, g, s, u, ops)
        g = g2; s = step.slen
      }
      assert(TestKit.collectSlen(s) == scratch(g))
    }

  test("changedPairs: insert affects exactly the improved pairs") {
    val lg   = TestKit.LocalGraph(Seq((0L, "A"), (1L, "A"), (2L, "A")),
                                  Seq((0L, 1L), (1L, 2L)))
    val g    = lg.toDataGraph(spark)
    val slen = ops.fullApsp(spark, g)
    val s2   = IncApsp.insertEdgeStep(slen, 2L, 0L, cap).slen
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
    val s2   = IncApsp.deleteEdgeStep(slen, a, b, recompute(g2)).slen
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
    val s2   = IncApsp.insertEdgeStep(slen, 1L, 2L, cap).slen // already at distance 1
    assert(IncApsp.changedPairs(slen, s2).isEmpty)
  }

  /** Applies `u` to the SLen `s0` of `lg` as one SLen step at cap `c` and
    * checks that the step's SLen equals `LocalRef.apsp` of the updated graph
    * and that its changed pairs equal the diff of the whole old and new
    * SLen. Returns the updated graph and the step.
    */
  private def checkLocal(lg: TestKit.LocalGraph, s0: DataFrame, u: DataUpdate,
                         c: Int = cap): (TestKit.LocalGraph, IncApsp.Step) = {
    val (_, step) = Engine.applyDataUpdate(spark, lg.toDataGraph(spark), s0, u, SlenOps(c))
    val lg2       = TestKit.applyDataLocal(lg, Seq(u))
    assert(TestKit.collectSlen(step.slen) == LocalRef.apsp(lg2.nodeIds, lg2.edges, c), s"SLen after $u")
    assert(rows(step.changed) == rows(IncApsp.changedPairs(s0, step.slen)), s"changed pairs of $u")
    (lg2, step)
  }

  for (seed <- 1 to 6)
    test(s"every update kind's step equals LocalRef and the whole-SLen diff (seed=$seed)") {
      // One update of each kind in turn, each step on the previous step's SLen.
      val rnd = new scala.util.Random(seed)
      def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
      var lg  = TestKit.randomGraph(seed + 200, n = 26, m = 70)
      var s   = ops.fullApsp(spark, lg.toDataGraph(spark))
      val ids = lg.nodeIds
      val others = rnd.shuffle(ids).take(4)
      val kinds: Seq[TestKit.LocalGraph => DataUpdate] = Seq(
        g => { val (a, b) = pick(for (x <- ids; y <- ids if x != y && !g.edges.contains((x, y))) yield (x, y))
               DataEdgeIns(a, b) },
        g => { val (a, b) = pick(g.edges); DataEdgeDel(a, b) },
        _ => DataNodeIns(1000L, "L0", outTo = others.take(2), inFrom = others.drop(2)),
        g => DataNodeDel(pick(g.nodeIds.filter(v => g.edges.exists(_._1 == v) && g.edges.exists(_._2 == v))))
      )
      kinds.foreach { next =>
        val (lg2, step) = checkLocal(lg, s, next(lg))
        lg = lg2; s = step.slen
      }
    }

  test("SLen step: the insertNode wrapper (cap 0), then one insertEdge step per attachment") {
    val lg  = TestKit.randomGraph(61, n = 26, m = 70)
    var s   = ops.fullApsp(spark, lg.toDataGraph(spark))
    val v   = 500L
    val (outTo, inFrom) = (Seq(3L, 7L), Seq(11L, 19L))
    var cur = lg.copy(nodes = lg.nodes :+ ((v, "L1")))
    s = IncApsp.insertNode(spark, s, v)
    assert(TestKit.collectSlen(s) == LocalRef.apsp(cur.nodeIds, cur.edges, cap))
    (outTo.map(t => (v, t)) ++ inFrom.map(x => (x, v))).foreach { case (a, b) =>
      val (lg2, step) = checkLocal(cur, s, DataEdgeIns(a, b))
      cur = lg2; s = step.slen
    }
    assert(TestKit.collectSlen(s) == scratch(TestKit.applyDataLocal(lg,
      Seq(DataNodeIns(v, "L1", outTo, inFrom))).toDataGraph(spark)))
  }

  test("SLen step: inserts on a chain longer than the cap truncate every new path at the cap") {
    // Chain 0 -> ... -> 11 at cap 3: closing it into a cycle, then adding a
    // node from 9 to 2, makes many new paths, most of them longer than 3.
    val c  = 3
    val lg = TestKit.LocalGraph((0L to 11L).map(i => (i, "A")), (0L until 11L).map(i => (i, i + 1)))
    val s0 = SlenOps(c).fullApsp(spark, lg.toDataGraph(spark))
    val (lg1, e) = checkLocal(lg, s0, DataEdgeIns(11L, 0L), c)
    assert(TestKit.collectSlen(e.slen).get((10L, 1L)).contains(3) && !TestKit.collectSlen(e.slen).contains((9L, 1L)))
    val (_, nd) = checkLocal(lg1, e.slen, DataNodeIns(50L, "B", outTo = Seq(2L), inFrom = Seq(9L)), c)
    val got = TestKit.collectSlen(nd.slen)
    assert(got((9L, 3L)) == 3 && !got.contains((8L, 3L))) // 9 -> v -> 2 -> 3
    assert(got.values.forall(_ <= c))
  }

  test("SLen step: deletes that disconnect part of the graph") {
    // Two 5-node cycles joined by the bridge 4 -> 5; 4 is also a cut node.
    val ring  = (b: Long) => (0L until 5L).map(i => (b + i, b + (i + 1) % 5))
    val lg    = TestKit.LocalGraph((0L to 9L).map(i => (i, "A")), ring(0L) ++ ring(5L) :+ ((4L, 5L)))
    val s0    = ops.fullApsp(spark, lg.toDataGraph(spark))
    val (_, e) = checkLocal(lg, s0, DataEdgeDel(4L, 5L))
    val lost  = rows(e.changed)
    // Every pair across the bridge but 0 -> 9, which takes 9 hops > cap.
    assert(lost.size == 24 && lost.forall { case (x, y, _, dNew) => x < 5 && y >= 5 && dNew.isEmpty })
    val (_, v) = checkLocal(lg, s0, DataNodeDel(4L))
    assert(rows(v.changed).contains((0L, 5L, Some(5), None)))
  }

  test("an insert step is one Spark job with a one-partition SLen") {
    val lg = TestKit.randomGraph(62, n = 26, m = 70)
    val s0 = ops.fullApsp(spark, lg.toDataGraph(spark))
    val (a, b) = (for (x <- lg.nodeIds; y <- lg.nodeIds if x != y && !lg.edges.contains((x, y))) yield (x, y)).head
    assert(TestKit.countJobs(spark)(IncApsp.insertEdgeStep(s0, a, b, cap)) == 1)
    assert(TestKit.countJobs(spark)(IncApsp.insertNodeStep(s0, 900L, Seq(1L, 2L), Seq(3L, 4L), cap)) == 1)
    assert(IncApsp.insertNodeStep(s0, 900L, Seq(1L, 2L), Seq(3L, 4L), cap).slen.rdd.getNumPartitions == 1)
  }

  test("a delete step takes at most two Spark jobs") {
    val lg = TestKit.randomGraph(63, n = 26, m = 70)
    val g  = lg.toDataGraph(spark)
    val s0 = ops.fullApsp(spark, g)
    val (a, b) = lg.edges.head
    val v      = lg.edges.last._1
    assert(TestKit.countJobs(spark)(IncApsp.deleteEdgeStep(s0, a, b, recompute(g.deleteEdge(a, b)))) <= 2)
    assert(TestKit.countJobs(spark)(IncApsp.deleteNodeStep(s0, v, recompute(g.removeNode(v)))) <= 2)
  }

  test("Aff_N of a step is one Spark job over the step's checkpoint, with no exchange") {
    val lg = TestKit.randomGraph(64, n = 26, m = 70)
    val g  = lg.toDataGraph(spark)
    val s0 = ops.fullApsp(spark, g)
    val (a, b) = lg.edges.head
    val steps = Seq(IncApsp.insertNodeStep(s0, 900L, Seq(a), Seq(b), cap),
                    IncApsp.deleteEdgeStep(s0, a, b, recompute(g.deleteEdge(a, b))))
    steps.foreach { step =>
      TestKit.assertNoExchange(step.changed)
      assert(TestKit.countJobs(spark)(Der.affectedNodes(step.changed)) == 1)
    }
  }
}
