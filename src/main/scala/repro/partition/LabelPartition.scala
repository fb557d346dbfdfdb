package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.DataGraph

/** Label-based graph partition (§V-A).
  *
  * Nodes sharing a label form a partition (the paper's homophily
  * observation [36]); cross-partition edges are recorded with the
  * partition of their *starting* node, and Algorithm 4 combines the
  * partitions those edges connect.
  *
  * No SLen computation uses the partition: on every bench graph all labels
  * combine into one component (DESIGN.md §3.3), so scoping pruned nothing
  * and was removed. `perfbench/` still probes the combined components.
  */
object LabelPartition {

  /** Edges annotated with both endpoint labels:
    * `(src, dst, srcLabel, dstLabel)`.
    */
  def annotatedEdges(g: DataGraph): DataFrame =
    g.edges
      .join(g.nodes.select(col("id").as("src"), col("label").as("srcLabel")), Seq("src"))
      .join(g.nodes.select(col("id").as("dst"), col("label").as("dstLabel")), Seq("dst"))
      .select("src", "dst", "srcLabel", "dstLabel")

  /** Cross-partition edges, recorded in the starting node's partition:
    * `(pid, src, dst, dstPid)`.
    */
  def crossEdges(g: DataGraph): DataFrame =
    annotatedEdges(g)
      .filter(col("srcLabel") =!= col("dstLabel"))
      .select(col("srcLabel").as("pid"), col("src"), col("dst"), col("dstLabel").as("dstPid"))

  /** The fixpoint of Algorithm 4's recursive partition combination: labels
    * connected by any cross edge end up in one *combined partition*
    * (weakly-connected components of the partition-connectivity graph).
    * Returns label → component id; isolated labels map to themselves.
    * The component graph has ≤ #labels nodes, so this runs on the driver.
    */
  def combinedComponents(g: DataGraph): Map[String, Int] = {
    val labels = g.nodes.select("label").distinct().collect().map(_.getString(0)).sorted
    val pairs = crossEdges(g)
      .select("pid", "dstPid").distinct().collect()
      .map(r => (r.getString(0), r.getString(1)))
    val parent = scala.collection.mutable.Map.from(labels.map(l => l -> l))
    def find(x: String): String = {
      var r = x
      while (parent(r) != r) r = parent(r)
      r
    }
    def union(x: String, y: String): Unit = {
      val (rx, ry) = (find(x), find(y))
      if (rx != ry) parent(if (rx < ry) ry else rx) = if (rx < ry) rx else ry
    }
    pairs.foreach { case (a, b) => union(a, b) }
    val rootIds = labels.map(find).distinct.sorted.zipWithIndex.toMap
    labels.map(l => l -> rootIds(find(l))).toMap
  }
}
