package repro.sssp

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Rows

import scala.collection.mutable

/** Incremental maintenance of the SLen matrix under `ΔG_D` (§IV-B, DER-II's
  * Steps 1–2: update SLen, then find `Aff_N`, the endpoints of the pairs
  * whose shortest path length changed).
  *
  * Every data update is one SLen *step* ([[Step]]): the new SLen together
  * with the pairs whose distance changed, found from the rows the update
  * touched instead of a diff of the whole old and new SLen. A step ends in
  * one `coalesce(1).mapPartitions` task with no shuffle, as
  * `Bgs.matchFixpoint` and [[ApspBfs]] do, in a plain RDD job. The task
  * holds the SLen rows in primitive arrays indexed by source and writes the
  * new SLen rows and the changed pairs, tagged, into one local checkpoint;
  * `Step.slen` and `Step.changed` both read it.
  *
  * - Node insert `v` with in-neighbours `S` and out-neighbours `T` is one
  *   min-plus step through `v`: `d(x,v) = 1 + min_s d(x,s)`,
  *   `d(v,y) = 1 + min_t d(t,y)` and `d'(x,y) = min(d(x,y), d(x,v) + d(v,y))`
  *   within the cap, plus `v`'s own rows. A shortest path visits `v` at
  *   most once, and its parts before and after `v` avoid `v`, so old
  *   distances suffice. Edge insert `(a,b)` is the same step through the
  *   edge: `d'(x,y) = min(d(x,y), d(x,a) + 1 + d(b,y))`. Distances only
  *   fall, so the changed pairs are the lowered and the added ones. One
  *   Spark job.
  * - Edge delete `(a,b)` recomputes the sound affected-source set
  *   `{s : d(s,b) = d(s,a) + 1}` (any pair whose distance grows must have
  *   routed its shortest path through the deleted edge); node delete `v`
  *   recomputes the sources that reach `v`. The set is a lazy filter over
  *   SLen that the caller's restricted multi-source BFS reads (the
  *   [[ApspBfs]] kernel, one job). A second task splices their fresh rows
  *   in and diffs only their old and fresh rows. Two Spark jobs.
  *
  * [[changedPairs]], the diff of two whole SLen states, is the reference
  * the steps are tested against. It and the four DataFrame wrappers are
  * the only code here that plans a Dataset.
  */
object IncApsp {

  /** The restricted-source recompute, bound to the post-update graph: maps
    * a set of source ids to fresh SLen rows for exactly those of them that
    * are nodes of that graph.
    */
  type Fresh = RDD[Long] => RDD[(Long, Long, Int)]

  /** [[Fresh]] over DataFrames: source ids in column "id" to SLen rows. */
  type Recompute = DataFrame => DataFrame

  /** A pair whose distance changed, `(src, dst, d_old, d_new)`, `None` for ∞. */
  type Changed = (Long, Long, Option[Int], Option[Int])

  /** One data update's effect on SLen: the new SLen and the pairs whose
    * distance changed, the rows [[changedPairs]] would find between the old
    * SLen and `slen`. Both read the step's one checkpoint, in one partition.
    */
  final case class Step(slen: RDD[(Long, Long, Int)], changed: RDD[Changed])

  /** Step for inserting edge (a, b). Both endpoints must already have
    * their self rows (insert nodes with [[insertNodeStep]]).
    */
  def insertEdgeStep(slen: RDD[(Long, Long, Int)], a: Long, b: Long, cap: Int): Step =
    through(slen, Seq(a), Seq(b), node = None, cap)

  /** Step for inserting node `v` with edges `v → t` (`t ∈ outTo`) and
    * `s → v` (`s ∈ inFrom`); `v` must not be a node yet. Distances through
    * `v` beyond `cap` are dropped.
    */
  def insertNodeStep(slen: RDD[(Long, Long, Int)], v: Long, outTo: Seq[Long], inFrom: Seq[Long],
                     cap: Int): Step =
    through(slen, inFrom, outTo, node = Some(v), cap)

  /** Step for deleting edge (a, b); `fresh` runs over the post-delete edge
    * set.
    */
  def deleteEdgeStep(slen: RDD[(Long, Long, Int)], a: Long, b: Long, fresh: Fresh): Step = {
    // The sources with d(s,b) = d(s,a) + 1, from their rows into a and b.
    val sources = slen.filter { case (_, t, _) => t == a || t == b }
      .coalesce(1)
      .mapPartitions { rows =>
        val toA = mutable.HashMap.empty[Long, Int]
        val toB = mutable.HashMap.empty[Long, Int]
        rows.foreach { case (s, t, d) => if (t == a) toA(s) = d else toB(s) = d }
        toA.iterator.collect { case (s, d) if toB.get(s).contains(d + 1) => s }
      }
    splice(slen, sources, dropped = Nil, fresh)
  }

  /** Step for deleting node `v`; `fresh` runs over the post-delete graph
    * (v and its incident edges removed), so its rows never mention `v`.
    * Every source that could reach `v` may have routed paths through it, so
    * those sources are recomputed.
    */
  def deleteNodeStep(slen: RDD[(Long, Long, Int)], v: Long, fresh: Fresh): Step = {
    val sources = slen.collect { case (s, t, _) if t == v && s != v => s }
    // Only v and the sources reaching it have rows that mention v.
    splice(slen, sources, dropped = Seq(v), fresh)
  }

  // Only `perfbench/`'s `Replay` calls the four DataFrame wrappers below,
  // which keep a step's SLen alone; they go with that benchmark's change
  // (ROADMAP 1).

  /** SLen after inserting edge (a, b); see [[insertEdgeStep]]. */
  def insertEdge(slen: DataFrame, a: Long, b: Long, cap: Int): DataFrame =
    Rows.slenFrame(slen.sparkSession, insertEdgeStep(Rows.slen(slen), a, b, cap).slen)

  /** SLen after inserting an isolated node (just its self row); attachment
    * edges are applied with [[insertEdge]] by the caller. Without
    * attachments no distance reaches the cap, so any cap serves.
    */
  def insertNode(spark: SparkSession, slen: DataFrame, v: Long): DataFrame =
    Rows.slenFrame(spark, insertNodeStep(Rows.slen(slen), v, Nil, Nil, cap = 0).slen)

  /** SLen after deleting edge (a, b); see [[deleteEdgeStep]]. */
  def deleteEdge(slen: DataFrame, a: Long, b: Long, recompute: Recompute): DataFrame =
    Rows.slenFrame(slen.sparkSession, deleteEdgeStep(Rows.slen(slen), a, b, freshOf(slen, recompute)).slen)

  /** SLen after deleting node `v`; see [[deleteNodeStep]]. */
  def deleteNode(slen: DataFrame, v: Long, recompute: Recompute): DataFrame =
    Rows.slenFrame(slen.sparkSession, deleteNodeStep(Rows.slen(slen), v, freshOf(slen, recompute)).slen)

  private def freshOf(slen: DataFrame, recompute: Recompute): Fresh = {
    val spark = slen.sparkSession
    import spark.implicits._
    sources => Rows.slen(recompute(sources.toDF("id")))
  }

  /** Pairs whose shortest path length changed between two SLen states
    * (appeared, disappeared, or changed value): `(src, dst, d_old, d_new)`
    * with nulls for ∞. This is the raw material of `Aff_N(U_Di)`.
    */
  def changedPairs(oldSlen: DataFrame, newSlen: DataFrame): DataFrame =
    oldSlen
      .withColumnRenamed("d", "d_old")
      .join(newSlen.withColumnRenamed("d", "d_new"), Seq("src", "dst"), "full_outer")
      .filter(!(col("d_old") <=> col("d_new")))
      .select(col("src"), col("dst"), col("d_old"), col("d_new"))

  /** Insert step, in one task. With `dx(x) = 1 + min_{s ∈ inFrom} d(x,s)`
    * and `dy(y) = hop + min_{t ∈ outTo} d(t,y)`, where `hop` is 0 through
    * an edge and 1 through a node `v` (which also gets `dx(v) = dy(v) = 0`),
    * every pair takes `min(d(x,y), dx(x) + dy(y))` within `cap`.
    */
  private def through(slen: RDD[(Long, Long, Int)], inFrom: Seq[Long], outTo: Seq[Long],
                      node: Option[Long], cap: Int): Step =
    step(tagged(slen, Old), inFrom ++ outTo ++ node) { in =>
      import in._
      val isIn = new Array[Boolean](n)
      inFrom.foreach(s => isIn(slot(s)) = true)
      val dx = Array.fill(n)(Inf)
      for (x <- 0 until n; k <- old.rows(x) if isIn(old.dst(k))) dx(x) = math.min(dx(x), old.d(k) + 1)
      val hop = if (node.isEmpty) 0 else 1
      val dy  = Array.fill(n)(Inf)
      for (t <- outTo.map(slot); k <- old.rows(t)) dy(old.dst(k)) = math.min(dy(old.dst(k)), old.d(k) + hop)
      node.map(slot).foreach { v => dx(v) = 0; dy(v) = 0 }

      // Every old node has its self row at 0, so only v's self pair is added.
      val ys      = (0 until n).filter(dy(_) <= cap).toArray
      val seen    = new Array[Boolean](n)
      val changes = new Changes
      for (x <- 0 until n if dx(x) <= cap) {
        old.rows(x).foreach { k =>
          val y = old.dst(k)
          seen(y) = true
          val c = if (dy(y) <= cap) dx(x) + dy(y) else Inf
          if (c < old.d(k) && c <= cap) { changes.add(x, y, old.d(k), c); old.d(k) = c }
        }
        ys.foreach(y => if (!seen(y) && dx(x) + dy(y) <= cap) changes.add(x, y, Inf, dx(x) + dy(y)))
        old.rows(x).foreach(k => seen(old.dst(k)) = false)
      }
      (0 until n).iterator.flatMap(old.emit(ids, _)) ++ changes.added(ids) ++ changes.emit(ids)
    }

  /** Delete step: recompute `sources` with `fresh`, then, in one task,
    * replace the rows of the recomputed sources and of `dropped` (ids left
    * without rows) with the fresh ones and diff only those rows. Every
    * recomputed source has at least its fresh self row, so the sources are
    * the ids with fresh rows.
    */
  private def splice(slen: RDD[(Long, Long, Int)], sources: RDD[Long], dropped: Seq[Long],
                     fresh: Fresh): Step =
    step(tagged(slen, Old) ++ tagged(fresh(sources), New), dropped) { in =>
      import in._
      val drop = Array.tabulate(n)(recomputed.rows(_).nonEmpty)
      dropped.foreach(v => drop(slot(v)) = true)
      val dOld    = Array.fill(n)(Inf)
      val changes = new Changes
      for (x <- 0 until n if drop(x)) {
        old.rows(x).foreach(k => dOld(old.dst(k)) = old.d(k))
        recomputed.rows(x).foreach { k =>
          val y = recomputed.dst(k)
          if (dOld(y) != recomputed.d(k)) changes.add(x, y, dOld(y), recomputed.d(k))
          dOld(y) = Inf
        }
        // What the fresh rows left is a pair that became unreachable.
        old.rows(x).foreach { k =>
          val y = old.dst(k)
          if (dOld(y) != Inf) changes.add(x, y, dOld(y), Inf)
          dOld(y) = Inf
        }
      }
      (0 until n).iterator.flatMap(x => (if (drop(x)) recomputed else old).emit(ids, x)) ++ changes.emit(ids)
    }

  // Input row kinds: an old and a recomputed SLen row. Output row kinds: a
  // new SLen row and a changed pair.
  private val Old = 0; private val New = 1
  private val SlenRow = 0; private val ChangedRow = 1
  /** ∞ inside a task; `None` outside. */
  private val Inf = Int.MaxValue

  private type In  = (Int, Long, Long, Int)
  private type Out = (Int, Long, Long, Int, Int)

  private def tagged(slen: RDD[(Long, Long, Int)], kind: Int): RDD[In] =
    slen.map { case (s, t, d) => (kind, s, t, d) }

  /** Runs `body` in one coalesced task over the `(kind, src, dst, d)` rows
    * and checkpoints what it emits; `named` are the ids the step refers to,
    * given slots even when no row mentions them. `Step.slen` and
    * `Step.changed` read only the checkpoint, so a run of steps never
    * stacks lineage.
    */
  private def step(rows: RDD[In], named: Seq[Long])(body: Input => Iterator[Out]): Step = {
    // `coalesce`, not `repartition`: one task reads every input partition
    // without a shuffle.
    val out = Rows.checkpoint(rows.coalesce(1).mapPartitions(it => body(new Input(it, named))))
    def finite(d: Int): Option[Int] = if (d == Inf) None else Some(d)
    Step(out.collect { case (SlenRow, s, t, _, d) => (s, t, d) },
         out.collect { case (ChangedRow, s, t, before, after) => (s, t, finite(before), finite(after)) })
  }

  /** SLen rows of one task in primitive arrays indexed by source slot: the
    * rows of source `x` are `k` from `start(x)` until `start(x + 1)`, with
    * target slot `dst(k)` and distance `d(k)`.
    */
  private final class Table(start: Array[Int], val dst: Array[Int], val d: Array[Int]) {
    def rows(x: Int): Range = start(x) until start(x + 1)
    def emit(ids: Array[Long], x: Int): Iterator[Out] =
      rows(x).iterator.map(k => (SlenRow, ids(x), ids(dst(k)), Inf, d(k)))
  }

  /** Rows in arrival order, sorted by source slot into a [[Table]]. */
  private final class TableBuilder {
    private val src, dst, d = new mutable.ArrayBuilder.ofInt
    def add(s: Int, t: Int, dd: Int): Unit = { src += s; dst += t; d += dd }
    def result(n: Int): Table = {
      val (ss, ts, ds) = (src.result(), dst.result(), d.result())
      val start = new Array[Int](n + 1)
      ss.foreach(x => start(x + 1) += 1)
      for (x <- 0 until n) start(x + 1) += start(x)
      val next = start.clone()
      val (dstOut, dOut) = (new Array[Int](ss.length), new Array[Int](ss.length))
      ss.indices.foreach { k =>
        dstOut(next(ss(k))) = ts(k); dOut(next(ss(k))) = ds(k); next(ss(k)) += 1
      }
      new Table(start, dstOut, dOut)
    }
  }

  /** One task's input: every id of a row or of `named` gets a dense slot
    * (`ids(slot(id))` is the id), and the old and the recomputed SLen rows
    * are each a [[Table]].
    */
  private final class Input(rows: Iterator[In], named: Seq[Long]) {
    private val slotOf = mutable.HashMap.empty[Long, Int]
    private val idsB   = new mutable.ArrayBuilder.ofLong
    private def add(id: Long): Int = slotOf.getOrElseUpdate(id, { idsB += id; slotOf.size })
    def slot(id: Long): Int = slotOf(id)

    private val oldB, newB = new TableBuilder
    rows.foreach { case (kind, s, t, d) => (if (kind == Old) oldB else newB).add(add(s), add(t), d) }
    named.foreach(add)
    val ids: Array[Long] = idsB.result()
    val n: Int           = ids.length
    val old: Table        = oldB.result(n)
    val recomputed: Table = newB.result(n)
  }

  /** Changed pairs `(x, y, d_old, d_new)` of one task, by slot. */
  private final class Changes {
    private val src, dst, dOld, dNew = new mutable.ArrayBuilder.ofInt
    def add(x: Int, y: Int, before: Int, after: Int): Unit = {
      src += x; dst += y; dOld += before; dNew += after
    }
    private lazy val (ss, ts, bs, as) = (src.result(), dst.result(), dOld.result(), dNew.result())
    def emit(ids: Array[Long]): Iterator[Out] =
      ss.indices.iterator.map(k => (ChangedRow, ids(ss(k)), ids(ts(k)), bs(k), as(k)))
    /** The added pairs (no old distance) as new SLen rows. */
    def added(ids: Array[Long]): Iterator[Out] =
      ss.indices.iterator.filter(bs(_) == Inf).map(k => (SlenRow, ids(ss(k)), ids(ts(k)), Inf, as(k)))
  }
}
