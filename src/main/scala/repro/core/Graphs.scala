package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A directed, node-labeled data graph `G_D = (V_D, E_D, f_a)` (§III-A).
  *
  * Held as two DataFrames, the form the methods take and the generators
  * write; the kernels read them as [[GraphRows]]:
  *   - `nodes(id: Long, label: String)` — `f_a` reduced to a single label,
  *     which is how the paper uses it (job titles);
  *   - `edges(src: Long, dst: Long)` — unweighted directed edges.
  *
  * Update application returns a new `DataGraph` whose sides are lazy
  * `union`s and `filter`s over the previous ones: no update launches a
  * Spark job. A batch holds at most tens of updates, so every later read
  * replays that many small steps over the (cached) base graph.
  */
final case class DataGraph(nodes: DataFrame, edges: DataFrame) {

  /** Insert a directed edge; no-op if it already exists. Any copy of the
    * edge is dropped before it is added, as [[GraphRows.update]] does, so
    * no `distinct` shuffles the edge rows.
    */
  def insertEdge(spark: SparkSession, a: Long, b: Long): DataGraph = {
    import spark.implicits._
    copy(edges = deleteEdge(a, b).edges.union(Seq((a, b)).toDF("src", "dst")))
  }

  /** Delete a directed edge; no-op if absent. */
  def deleteEdge(a: Long, b: Long): DataGraph =
    copy(edges = edges.filter(!(col("src") === a && col("dst") === b)))

  /** Insert a node with its attachment edges (out- and in-neighbours).
    * `id` must not be a node yet, so neither its row nor its edges can
    * duplicate an existing one.
    */
  def insertNode(spark: SparkSession, id: Long, label: String,
                 outTo: Seq[Long], inFrom: Seq[Long]): DataGraph = {
    import spark.implicits._
    val newEdges = (outTo.map(t => (id, t)) ++ inFrom.map(s => (s, id))).distinct.toDF("src", "dst")
    DataGraph(nodes.union(Seq((id, label)).toDF("id", "label")), edges.union(newEdges))
  }

  /** Delete a node and all its incident edges. */
  def removeNode(id: Long): DataGraph =
    DataGraph(nodes.filter(col("id") =!= id),
              edges.filter(col("src") =!= id && col("dst") =!= id))

  /** Apply one data update, as the method of its kind does. */
  def update(spark: SparkSession, u: DataUpdate): DataGraph = u match {
    case DataEdgeIns(a, b)                     => insertEdge(spark, a, b)
    case DataEdgeDel(a, b)                     => deleteEdge(a, b)
    case DataNodeIns(id, label, outTo, inFrom) => insertNode(spark, id, label, outTo, inFrom)
    case DataNodeDel(id)                       => removeNode(id)
  }

  /** Number of nodes (an action). */
  def numNodes: Long = nodes.count()

  /** Number of edges (an action). */
  def numEdges: Long = edges.count()

  /** Pin both sides in memory for repeated traversals. */
  def cached(): DataGraph = {
    nodes.cache(); edges.cache()
    DataGraph(nodes, edges)
  }
}

object DataGraph {

  /** Build a graph from driver-side node and edge lists (tests, examples). */
  def fromLocal(spark: SparkSession, ns: Seq[(Long, String)], es: Seq[(Long, Long)]): DataGraph = {
    import spark.implicits._
    DataGraph(ns.toDF("id", "label"), es.toDF("src", "dst"))
  }
}

/** A pattern node: identifier (e.g. "PM") and required label. */
final case class PNode(id: String, label: String)

/** A pattern edge `(src, dst)` with bounded path length `1..bound`;
  * `bound = PatternGraph.Star` encodes the `*` symbol (any finite length).
  */
final case class PEdge(src: String, dst: String, bound: Int) {

  /** The largest SLen distance this edge reads under `cap`, the one bound
    * rule (DESIGN.md §3.1): a finite bound ≤ `cap` as is, `*` as `cap`. A
    * finite bound above `cap` is rejected, since SLen cannot tell its
    * distances `cap+1..bound` from ∞.
    */
  def horizon(cap: Int): Int = {
    require(bound == PatternGraph.Star || bound <= cap,
            s"pattern edge $src -> $dst has bound $bound above the SLen cap $cap")
    math.min(bound, cap)
  }
}

/** A pattern graph `G_P = (V_P, E_P, f_v, f_e)` (§III-A).
  *
  * Patterns have 6–10 nodes in the paper, so they are plain driver-side
  * values.
  */
final case class PatternGraph(nodes: Seq[PNode], edges: Seq[PEdge]) {
  require(nodes.map(_.id).distinct.size == nodes.size, "duplicate pattern node ids")

  /** Node lookup by id. */
  def node(id: String): PNode = nodes.find(_.id == id)
    .getOrElse(throw new NoSuchElementException(s"pattern node $id"))

  /** Whether `id` names a node of this pattern. */
  def hasNode(id: String): Boolean = nodes.exists(_.id == id)

  /** Out- and in-neighbour pattern-node ids of `id`. */
  def neighbours(id: String): Seq[String] =
    (edges.collect { case PEdge(s, d, _) if s == id => d } ++
     edges.collect { case PEdge(s, d, _) if d == id => s }).distinct

  /** Largest SLen distance any edge reads under `cap` (0 with no edges);
    * used to prune SLen rows. Rejects a bound above `cap` ([[PEdge.horizon]]).
    */
  def maxBound(cap: Int): Int = edges.map(_.horizon(cap)).maxOption.getOrElse(0)
}

object PatternGraph {
  /** The `*` bound: no length constraint beyond finiteness. */
  val Star: Int = Int.MaxValue
}
