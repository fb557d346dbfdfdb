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

  /** Apply `u`, returning the updated graph and maintained SLen. */
  def applyDataUpdate(spark: SparkSession, g: DataGraph, slen: DataFrame,
                      u: DataUpdate, ops: SlenOps): (DataGraph, DataFrame) = u match {
    case DataEdgeIns(a, b) =>
      val g2 = g.insertEdge(spark, a, b)
      (g2, IncApsp.insertEdge(slen, a, b, ops.cap))
    case DataEdgeDel(a, b) =>
      val g2 = g.deleteEdge(a, b)
      (g2, IncApsp.deleteEdge(slen, a, b, ops.recompute(spark, g2)))
    case DataNodeIns(id, label, outTo, inFrom) =>
      val g2    = g.insertNode(spark, id, label, outTo, inFrom)
      val base  = IncApsp.insertNode(spark, slen, id)
      val after = (outTo.map(t => (id, t)) ++ inFrom.map(s => (s, id)))
        .foldLeft(base) { case (s, (a, b)) => IncApsp.insertEdge(s, a, b, ops.cap) }
      (g2, after)
    case DataNodeDel(id) =>
      val g2 = g.removeNode(id)
      (g2, IncApsp.deleteNode(slen, id, ops.recompute(spark, g2)))
  }
}
