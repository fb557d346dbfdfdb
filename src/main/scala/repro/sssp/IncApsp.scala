package repro.sssp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Incremental maintenance of the SLen matrix under `ΔG_D` (§IV-B, DER-II's
  * Step 1: "update SLen to get SLen_new for each update in the data graph").
  *
  * - Edge insert `(a,b)` is a pure min-plus step, no traversal:
  *   `d'(s,t) = min(d(s,t), d(s,a) + 1 + d(b,t))` — two filtered scans of
  *   SLen and one join.
  * - Edge delete `(a,b)` detects the sound affected-source set
  *   `{s : d(s,b) = d(s,a) + 1}` (any pair whose distance grows must have
  *   routed its shortest path through the deleted edge) and recomputes only
  *   those sources with a restricted multi-source BFS. The caller supplies
  *   it (`SlenOps.recompute`: the [[ApspBfs]] kernel, scoped to label
  *   partitions for UA-GPNM and unscoped for the other methods).
  * - Node ops reduce to the above plus self-row bookkeeping.
  */
object IncApsp {

  /** The restricted-source recompute, bound to the post-update graph: maps
    * a set of source ids ("id") to fresh SLen rows for exactly those of
    * them that are nodes of that graph.
    */
  type Recompute = DataFrame => DataFrame

  /** SLen after inserting edge (a, b). Both endpoints must already have
    * their self rows (insert nodes first).
    */
  def insertEdge(slen: DataFrame, a: Long, b: Long, cap: Int): DataFrame = {
    val toA   = slen.filter(col("dst") === a).select(col("src"), col("d").as("dxa"))
    val fromB = slen.filter(col("src") === b).select(col("dst"), col("d").as("dby"))
    val via = toA
      .crossJoin(fromB)
      .select(col("src"), col("dst"), (col("dxa") + lit(1) + col("dby")).as("d"))
      .filter(col("d") <= cap && col("src") =!= col("dst"))
    slen.union(via).groupBy("src", "dst").agg(min("d").as("d")).localCheckpoint()
  }

  /** SLen after deleting edge (a, b); `recompute` runs over the post-delete
    * edge set.
    */
  def deleteEdge(slen: DataFrame, a: Long, b: Long, recompute: Recompute): DataFrame = {
    val toA = slen.filter(col("dst") === a).select(col("src"), col("d").as("da"))
    val toB = slen.filter(col("dst") === b).select(col("src"), col("d").as("db"))
    val affected = toA
      .join(toB, "src")
      .filter(col("db") === col("da") + 1)
      .select(col("src").as("id"))
      .distinct()
      .localCheckpoint()
    if (affected.isEmpty) slen
    else spliceSources(slen, affected, recompute(affected))
  }

  /** SLen after inserting an isolated node (just its self row); attachment
    * edges are applied with [[insertEdge]] by the caller.
    */
  def insertNode(spark: SparkSession, slen: DataFrame, v: Long): DataFrame = {
    import spark.implicits._
    slen.union(Seq((v, v, 0)).toDF("src", "dst", "d")).distinct().localCheckpoint()
  }

  /** SLen after deleting node `v`; `recompute` runs over the post-delete
    * graph (v and its incident edges removed), so its rows never mention
    * `v`. Every source that could reach `v` may have routed paths through
    * it, so those sources are recomputed.
    */
  def deleteNode(slen: DataFrame, v: Long, recompute: Recompute): DataFrame = {
    val affected = slen
      .filter(col("dst") === v && col("src") =!= v)
      .select(col("src").as("id"))
      .distinct()
      .localCheckpoint()
    val without = slen.filter(col("src") =!= v && col("dst") =!= v)
    if (affected.isEmpty) without.localCheckpoint()
    else spliceSources(without, affected, recompute(affected))
  }

  /** Replace all rows of `slen` whose `src` is in `sources` by `fresh`. */
  private def spliceSources(slen: DataFrame, sources: DataFrame, fresh: DataFrame): DataFrame =
    slen
      .join(sources.withColumnRenamed("id", "src"), Seq("src"), "left_anti")
      .union(fresh)
      .localCheckpoint()

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

  /** The affected nodes of a changed-pair set: endpoints of changed pairs
    * (the paper's `Aff_N`).
    */
  def affectedNodes(changed: DataFrame): DataFrame =
    changed.select(col("src").as("id"))
      .union(changed.select(col("dst").as("id")))
      .distinct()
}
