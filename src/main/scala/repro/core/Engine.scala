package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.{ApspBfs, IncApsp}

/** How SLen is computed: every method runs the one BFS kernel [[ApspBfs]]
  * over the whole graph, bound to the SLen cap. These are its DataFrame
  * forms, for callers outside the methods' driver.
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
    sources => Rows.slenFrame(spark, ApspBfs.fromSources(Rows.graph(g), Rows.ids(sources), cap))

  /** Full SLen matrix from scratch. */
  def fullApsp(spark: SparkSession, g: DataGraph): DataFrame =
    Rows.slenFrame(spark, ApspBfs.apsp(Rows.graph(g), cap))
}

/** Application of one data update to the (graph, SLen) state. */
object Engine {

  /** Apply `u`, returning the updated graph and the SLen step: the
    * maintained SLen and the pairs whose distance `u` changed.
    */
  def applyDataUpdate(g: GraphRows, slen: RDD[(Long, Long, Int)], u: DataUpdate,
                      cap: Int): (GraphRows, IncApsp.Step) = {
    val g2 = g.update(u)
    def fresh(sources: RDD[Long]) = ApspBfs.fromSources(g2, sources, cap)
    val step = u match {
      case DataEdgeIns(a, b)                 => IncApsp.insertEdgeStep(slen, a, b, cap)
      case DataEdgeDel(a, b)                 => IncApsp.deleteEdgeStep(slen, a, b, fresh)
      case DataNodeIns(id, _, outTo, inFrom) => IncApsp.insertNodeStep(slen, id, outTo, inFrom, cap)
      case DataNodeDel(id)                   => IncApsp.deleteNodeStep(slen, id, fresh)
    }
    (g2, step)
  }
}
