package repro.sssp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.DataGraph

import scala.collection.mutable

/** The shortest-path-length kernel: exact in-memory BFS runs executed as
  * distributed `flatMapGroups` tasks. Every method computes SLen with it.
  *
  * The BFS roots are split into chunks; each chunk's task gets every edge
  * and the roots of that chunk, so one large graph still spreads across
  * cores.
  *
  * SLen representation (Table II): `(src, dst, d)` rows for *finite*
  * distances only, `d ∈ [0, cap]`, including the self rows `(v, v, 0)`.
  * Absent pair ⇒ ∞. The cap is a documented substitution (DESIGN.md §3.1):
  * pattern bounds are small integers (1–3), so distances beyond `cap`
  * never witness a match.
  */
object ApspBfs {

  /** BFS-root chunks: spreads one large graph across cores. */
  private val Chunks = 16

  /** SLen rows `(src, dst, d)` for every `src` in `sources` ("id" column)
    * that is a node of `g`, `d ≤ cap`.
    */
  def fromSources(spark: SparkSession, g: DataGraph, sources: DataFrame, cap: Int): DataFrame = {
    import spark.implicits._
    val chunkIds = (0 until Chunks).toDF("chunk")
    val edgeRows = g.edges
      .crossJoin(chunkIds)
      .select(col("chunk"), lit(0).as("kind"), col("src").as("a"), col("dst").as("b"))
    val sourceRows = sources
      .select(col("id")).distinct()
      .join(g.nodes.select(col("id")), Seq("id"))
      .select(pmod(col("id"), lit(Chunks)).cast("int").as("chunk"),
              lit(1).as("kind"), col("id").as("a"), lit(0L).as("b"))

    val out = edgeRows.union(sourceRows)
      .as[(Int, Int, Long, Long)]
      .groupByKey(_._1)
      .flatMapGroups { (_: Int, rows: Iterator[(Int, Int, Long, Long)]) =>
        val edges = mutable.ArrayBuffer.empty[(Long, Long)]
        val roots = mutable.ArrayBuffer.empty[Long]
        rows.foreach {
          case (_, 0, a, b) => edges += ((a, b))
          case (_, _, a, _) => roots += a
        }
        if (roots.isEmpty) Iterator.empty
        else localBfs(edges.toSeq, roots.toSeq, cap)
      }
      .toDF("src", "dst", "d")
    out.localCheckpoint()
  }

  /** Full SLen matrix (all nodes as sources). */
  def apsp(spark: SparkSession, g: DataGraph, cap: Int): DataFrame =
    fromSources(spark, g, g.nodes.select("id"), cap)

  /** Plain in-memory BFS from each root over an adjacency list; emits
    * `(root, v, d)` for every node within `cap` hops (including the root
    * itself at distance 0).
    */
  private def localBfs(edges: Seq[(Long, Long)], roots: Seq[Long],
                       cap: Int): Iterator[(Long, Long, Int)] = {
    val adj = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    edges.foreach { case (s, d) => adj.getOrElseUpdate(s, mutable.ArrayBuffer.empty) += d }
    roots.iterator.flatMap { r =>
      val dist  = mutable.HashMap[Long, Int](r -> 0)
      var level = mutable.ArrayBuffer(r)
      var d     = 0
      while (level.nonEmpty && d < cap) {
        d += 1
        val next = mutable.ArrayBuffer.empty[Long]
        level.foreach { v =>
          adj.getOrElse(v, Nil).foreach { w =>
            if (!dist.contains(w)) { dist(w) = d; next += w }
          }
        }
        level = next
      }
      dist.iterator.map { case (v, dd) => (r, v, dd) }
    }
  }
}
