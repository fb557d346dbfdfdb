package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow

/** A data graph as the kernels read it: node rows `(id, label)` and edge
  * rows `(src, dst)`. Updates are lazy RDD transformations, as
  * [[DataGraph]]'s are, and none shuffles: a batch's later reads narrow
  * over the base graph's partitions.
  */
final case class GraphRows(nodes: RDD[(Long, String)], edges: RDD[(Long, Long)]) {

  /** Apply one data update as [[DataGraph.update]] does, rule for rule:
    * an edge insert drops any copy of the edge before adding it, so
    * inserting an existing edge is a no-op, with no `distinct`.
    */
  def update(u: DataUpdate): GraphRows = u match {
    case DataEdgeIns(a, b) =>
      copy(edges = edges.filter(_ != ((a, b))) ++ one(Seq((a, b))))
    case DataEdgeDel(a, b) =>
      copy(edges = edges.filter(_ != ((a, b))))
    case DataNodeIns(id, label, outTo, inFrom) =>
      GraphRows(nodes ++ one(Seq((id, label))),
                edges ++ one((outTo.map(t => (id, t)) ++ inFrom.map(s => (s, id))).distinct))
    case DataNodeDel(id) =>
      GraphRows(nodes.filter(_._1 != id), edges.filter { case (a, b) => a != id && b != id })
  }

  private def one[A: scala.reflect.ClassTag](rows: Seq[A]): RDD[A] =
    nodes.sparkContext.parallelize(rows, 1)
}

/** The row RDDs the kernels read and write, and their conversions at the
  * DataFrame boundary (DESIGN.md §2). The kernels' rows: SLen
  * `(src, dst, d)` and GPNM matches `(pu, v)`.
  *
  * A DataFrame is read through `queryExecution.toRdd`, which plans it once
  * (per DataFrame) and, for a plan with no exchange, as a cached,
  * checkpointed or local input has, runs nothing. `Dataset.rdd` would also
  * open an SQL execution for it. A kernel's result is wrapped as a leaf
  * over its RDD, with `coalesce(1)` so that the frame reports the one
  * partition every kernel writes: a `count` or join over it then needs no
  * exchange, as over a checkpointed one-partition Dataset.
  */
object Rows {

  def graph(g: DataGraph): GraphRows = GraphRows(nodes(g), pairs(g.edges))

  /** `g`'s node rows alone, for the calls that read no edge. */
  def nodes(g: DataGraph): RDD[(Long, String)] = {
    val (id, label) = (g.nodes.schema.fieldIndex("id"), g.nodes.schema.fieldIndex("label"))
    internal(g.nodes).map(r => (r.getLong(id), r.getUTF8String(label).toString))
  }

  /** The "id" column. */
  def ids(df: DataFrame): RDD[Long] = {
    val id = df.schema.fieldIndex("id")
    internal(df).map(_.getLong(id))
  }

  /** The "src" and "dst" columns: edge rows, or changed pairs. */
  def pairs(df: DataFrame): RDD[(Long, Long)] = {
    val (src, dst) = (df.schema.fieldIndex("src"), df.schema.fieldIndex("dst"))
    internal(df).map(r => (r.getLong(src), r.getLong(dst)))
  }

  def slen(df: DataFrame): RDD[(Long, Long, Int)] = {
    val (src, dst, d) = (df.schema.fieldIndex("src"), df.schema.fieldIndex("dst"), df.schema.fieldIndex("d"))
    internal(df).map(r => (r.getLong(src), r.getLong(dst), r.getInt(d)))
  }

  def matches(df: DataFrame): RDD[(String, Long)] = {
    val (pu, v) = (df.schema.fieldIndex("pu"), df.schema.fieldIndex("v"))
    internal(df).map(r => (r.getUTF8String(pu).toString, r.getLong(v)))
  }

  def slenFrame(spark: SparkSession, rows: RDD[(Long, Long, Int)]): DataFrame = {
    import spark.implicits._
    rows.toDF("src", "dst", "d").coalesce(1)
  }

  def matchFrame(spark: SparkSession, rows: RDD[(String, Long)]): DataFrame = {
    import spark.implicits._
    rows.toDF("pu", "v").coalesce(1)
  }

  /** Locally checkpoint `rdd` and materialize it with one Spark job, so
    * that later reads neither recompute nor replay its lineage.
    */
  def checkpoint[A](rdd: RDD[A]): RDD[A] = {
    rdd.localCheckpoint()
    rdd.count()
    rdd
  }

  private def internal(df: DataFrame): RDD[InternalRow] = df.queryExecution.toRdd
}
