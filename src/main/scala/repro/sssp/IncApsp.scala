package repro.sssp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Incremental maintenance of the SLen matrix under `ΔG_D` (§IV-B, DER-II's
  * Steps 1–2: update SLen, then find `Aff_N`, the endpoints of the pairs
  * whose shortest path length changed).
  *
  * Every data update is one SLen *step* ([[Step]]): the new SLen together
  * with the pairs whose distance changed, read from the rows the update
  * touched instead of a diff of the whole old and new SLen.
  *
  * - Edge insert `(a,b)` is a min-plus step, no traversal:
  *   `d'(x,y) = min(d(x,y), d(x,a) + 1 + d(b,y))`, one `union`/`groupBy`
  *   that also keeps `min(d_old)`, so the lowered and added pairs are a
  *   filter over the same checkpoint.
  * - Node insert `v` with in-neighbours `S` and out-neighbours `T` is one
  *   min-plus step through `v`: `d(x,v) = 1 + min_s d(x,s)`,
  *   `d(v,y) = 1 + min_t d(t,y)` and `d'(x,y) = min(d(x,y), d(x,v) + d(v,y))`,
  *   plus the self row. A shortest path visits `v` at most once, and its
  *   parts before and after `v` avoid `v`, so old distances suffice.
  * - Edge delete `(a,b)` collects the sound affected-source set
  *   `{s : d(s,b) = d(s,a) + 1}` (any pair whose distance grows must have
  *   routed its shortest path through the deleted edge); node delete `v`
  *   collects the sources that reach `v`. Those sources are recomputed by a
  *   restricted multi-source BFS the caller supplies (`SlenOps.recompute`:
  *   the [[ApspBfs]] kernel, scoped to label partitions for UA-GPNM and
  *   unscoped for the other methods); the changed pairs are a diff of only
  *   their old and new rows.
  *
  * [[changedPairs]], the diff of two whole SLen states, is the reference
  * the steps are tested against.
  */
object IncApsp {

  /** The restricted-source recompute, bound to the post-update graph: maps
    * a set of source ids ("id") to fresh SLen rows for exactly those of
    * them that are nodes of that graph.
    */
  type Recompute = DataFrame => DataFrame

  /** One data update's effect on SLen: the new SLen and the pairs whose
    * distance changed, `(src, dst, d_old, d_new)` with nulls for ∞ — the
    * rows [[changedPairs]] would find between the old SLen and `slen`.
    */
  final case class Step(slen: DataFrame, changed: DataFrame)

  /** Step for inserting edge (a, b). Both endpoints must already have
    * their self rows (insert nodes with [[insertNodeStep]]).
    */
  def insertEdgeStep(slen: DataFrame, a: Long, b: Long, cap: Int): Step = {
    val toB   = slen.filter(col("dst") === a).select(col("src"), (col("d") + 1).as("dx"))
    val fromB = slen.filter(col("src") === b).select(col("dst"), col("d").as("dy"))
    lowered(slen, through(toB, fromB, cap))
  }

  /** Step for inserting node `v` with edges `v → t` (`t ∈ outTo`) and
    * `s → v` (`s ∈ inFrom`); `v` must not be a node yet. Distances through
    * `v` beyond `cap` are dropped.
    */
  def insertNodeStep(slen: DataFrame, v: Long, outTo: Seq[Long], inFrom: Seq[Long],
                     cap: Int): Step = {
    val toV   = slen.filter(col("dst").isin(inFrom: _*))
      .select(col("src"), (col("d") + 1).as("dx")).filter(col("dx") <= cap)
    val fromV = slen.filter(col("src").isin(outTo: _*))
      .select(col("dst"), (col("d") + 1).as("dy")).filter(col("dy") <= cap)
    val spark = slen.sparkSession
    import spark.implicits._
    lowered(slen, through(toV, fromV, cap)
      .union(toV.select(col("src"), lit(v).as("dst"), col("dx").as("d")))
      .union(fromV.select(lit(v).as("src"), col("dst"), col("dy").as("d")))
      .union(Seq((v, v, 0)).toDF("src", "dst", "d")))
  }

  /** Step for deleting edge (a, b); `recompute` runs over the post-delete
    * edge set.
    */
  def deleteEdgeStep(slen: DataFrame, a: Long, b: Long, recompute: Recompute): Step = {
    val rows = slen.filter(col("dst") === a || col("dst") === b)
      .select("src", "dst", "d").collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getInt(2))).toMap
    val affected = rows.keySet.collect {
      case (s, `a`) if rows.get((s, b)).contains(rows((s, a)) + 1) => s
    }
    splice(slen, affected, affected, recompute)
  }

  /** Step for deleting node `v`; `recompute` runs over the post-delete
    * graph (v and its incident edges removed), so its rows never mention
    * `v`. Every source that could reach `v` may have routed paths through
    * it, so those sources are recomputed.
    */
  def deleteNodeStep(slen: DataFrame, v: Long, recompute: Recompute): Step = {
    val affected = slen.filter(col("dst") === v && col("src") =!= v)
      .select("src").collect().map(_.getLong(0)).toSet
    // Only v and the sources reaching it have rows that mention v.
    splice(slen, affected + v, affected, recompute)
  }

  /** SLen after inserting edge (a, b); see [[insertEdgeStep]]. */
  def insertEdge(slen: DataFrame, a: Long, b: Long, cap: Int): DataFrame =
    insertEdgeStep(slen, a, b, cap).slen

  /** SLen after inserting an isolated node (just its self row); attachment
    * edges are applied with [[insertEdge]] by the caller. Without
    * attachments no distance reaches the cap, so any cap serves.
    */
  def insertNode(spark: SparkSession, slen: DataFrame, v: Long): DataFrame =
    insertNodeStep(slen, v, Nil, Nil, cap = 0).slen

  /** SLen after deleting edge (a, b); see [[deleteEdgeStep]]. */
  def deleteEdge(slen: DataFrame, a: Long, b: Long, recompute: Recompute): DataFrame =
    deleteEdgeStep(slen, a, b, recompute).slen

  /** SLen after deleting node `v`; see [[deleteNodeStep]]. */
  def deleteNode(slen: DataFrame, v: Long, recompute: Recompute): DataFrame =
    deleteNodeStep(slen, v, recompute).slen

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

  /** Min-plus through the inserted edge or node: `(src, dst, dx + dy)` for
    * every row `(src, dx)` of `to` and `(dst, dy)` of `from`, within `cap`.
    */
  private def through(to: DataFrame, from: DataFrame, cap: Int): DataFrame =
    to.crossJoin(from)
      .select(col("src"), col("dst"), (col("dx") + col("dy")).as("d"))
      .filter(col("d") <= cap && col("src") =!= col("dst"))

  /** Insert step: every pair takes the minimum of its old distance and the
    * `candidates`' (new finite distances, never longer paths), in one
    * shuffle; the changed pairs are those the candidates lowered or added.
    */
  private def lowered(slen: DataFrame, candidates: DataFrame): Step = {
    val pairs = perPair(
      slen.select(col("src"), col("dst"), col("d").as("d_old"), col("d").as("d_new"))
        .union(candidates.select(col("src"), col("dst"), lit(null).cast("int").as("d_old"),
                                 col("d").as("d_new")))
    ).localCheckpoint()
    Step(pairs.select(col("src"), col("dst"), col("d_new").as("d")), changedOf(pairs))
  }

  /** Delete step: drop the rows of the `dropped` sources and add fresh rows
    * for `sources` (a subset of them). Only the dropped sources' rows can
    * differ, so the diff covers only those rows. The new SLen is
    * checkpointed: left lazy, every delete in a run would stack one more
    * filter and union on the plan that every later read replays.
    */
  private def splice(slen: DataFrame, dropped: Set[Long], sources: Set[Long],
                     recompute: Recompute): Step = {
    val spark = slen.sparkSession
    import spark.implicits._
    val isDropped = col("src").isin(dropped.toSeq: _*)
    val old   = slen.filter(isDropped)
    val fresh = if (sources.isEmpty) slen.limit(0) else recompute(sources.toSeq.toDF("id"))
    val pairs = perPair(
      old.select(col("src"), col("dst"), col("d").as("d_old"), lit(null).cast("int").as("d_new"))
        .union(fresh.select(col("src"), col("dst"), lit(null).cast("int").as("d_old"),
                            col("d").as("d_new"))))
    Step(slen.filter(!isDropped).union(fresh).localCheckpoint(), changedOf(pairs))
  }

  /** `(src, dst, d_old, d_new)` rows reduced to one per pair, each side's
    * minimum (null = ∞).
    */
  private def perPair(rows: DataFrame): DataFrame =
    rows.groupBy("src", "dst").agg(min("d_old").as("d_old"), min("d_new").as("d_new"))

  private def changedOf(pairs: DataFrame): DataFrame =
    pairs.filter(!(col("d_old") <=> col("d_new")))
      .select(col("src"), col("dst"), col("d_old"), col("d_new"))
}
