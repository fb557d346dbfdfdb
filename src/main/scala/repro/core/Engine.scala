package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.{ApspBfs, IncApsp}
import repro.partition.LabelPartition

/** How SLen is computed for a method. Every method runs the one BFS kernel
  * [[ApspBfs]]; the only difference is its node grouping, which is exactly
  * what separates UA-GPNM from UA-GPNM-NoPar (§V): `partitioned` runs the
  * BFS inside the combined label partitions
  * ([[LabelPartition.combinedComponents]]), otherwise over all nodes as one
  * group.
  */
final case class SlenOps(cap: Int, partitioned: Boolean) {

  private def labelGroups(g: DataGraph): Option[Map[String, Int]] =
    if (partitioned) Some(LabelPartition.combinedComponents(g)) else None

  /** Recompute SLen rows for a source set over the post-update graph. The
    * partition is computed when the closure runs, so a deletion that
    * recomputes no source launches no partition jobs.
    */
  def recompute(spark: SparkSession, g: DataGraph): IncApsp.Recompute =
    sources => ApspBfs.fromSources(spark, g, sources, cap, labelGroups(g))

  /** Full SLen matrix from scratch. */
  def fullApsp(spark: SparkSession, g: DataGraph): DataFrame =
    ApspBfs.apsp(spark, g, cap, labelGroups(g))
}

/** Application of one data update to the (graph, SLen) state. */
object Engine {

  /** Apply `u`, returning the updated graph and the SLen step: the
    * maintained SLen and the pairs whose distance `u` changed.
    */
  def applyDataUpdate(spark: SparkSession, g: DataGraph, slen: DataFrame,
                      u: DataUpdate, ops: SlenOps): (DataGraph, IncApsp.Step) = u match {
    case DataEdgeIns(a, b) =>
      (g.insertEdge(spark, a, b), IncApsp.insertEdgeStep(slen, a, b, ops.cap))
    case DataEdgeDel(a, b) =>
      val g2 = g.deleteEdge(a, b)
      (g2, IncApsp.deleteEdgeStep(slen, a, b, ops.recompute(spark, g2)))
    case DataNodeIns(id, label, outTo, inFrom) =>
      (g.insertNode(spark, id, label, outTo, inFrom),
       IncApsp.insertNodeStep(slen, id, outTo, inFrom, ops.cap))
    case DataNodeDel(id) =>
      val g2 = g.removeNode(id)
      (g2, IncApsp.deleteNodeStep(slen, id, ops.recompute(spark, g2)))
  }
}
