package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.{ApspBfs, IncApsp}

/** How SLen is computed: every method runs the one BFS kernel [[ApspBfs]]
  * over the whole graph, bound to the SLen cap.
  *
  * @param partitioned ignored. It selected UA-GPNM's §V label-partition
  *                    scoping, which is removed because it pruned nothing
  *                    on any bench graph (DESIGN.md §3.3). The field stays
  *                    only because `perfbench/` still passes and reads it;
  *                    it goes with that benchmark's change in ROADMAP
  *                    item 1.
  */
final case class SlenOps(cap: Int, partitioned: Boolean = false) {

  /** Recompute SLen rows for a source set over the post-update graph. */
  def recompute(spark: SparkSession, g: DataGraph): IncApsp.Recompute =
    sources => ApspBfs.fromSources(spark, g, sources, cap)

  /** Full SLen matrix from scratch. */
  def fullApsp(spark: SparkSession, g: DataGraph): DataFrame =
    ApspBfs.apsp(spark, g, cap)
}

/** Application of one data update to the (graph, SLen) state. */
object Engine {

  /** Apply `u`, returning the updated graph and the SLen step: the
    * maintained SLen and the pairs whose distance `u` changed.
    */
  def applyDataUpdate(spark: SparkSession, g: DataGraph, slen: DataFrame,
                      u: DataUpdate, ops: SlenOps): (DataGraph, IncApsp.Step) = {
    val g2 = g.update(spark, u)
    val step = u match {
      case DataEdgeIns(a, b)                 => IncApsp.insertEdgeStep(slen, a, b, ops.cap)
      case DataEdgeDel(a, b)                 => IncApsp.deleteEdgeStep(slen, a, b, ops.recompute(spark, g2))
      case DataNodeIns(id, _, outTo, inFrom) => IncApsp.insertNodeStep(slen, id, outTo, inFrom, ops.cap)
      case DataNodeDel(id)                   => IncApsp.deleteNodeStep(slen, id, ops.recompute(spark, g2))
    }
    (g2, step)
  }
}
