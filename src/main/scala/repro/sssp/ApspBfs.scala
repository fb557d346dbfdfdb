package repro.sssp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.DataGraph

import scala.collection.mutable

/** The shortest-path-length kernel: exact in-memory BFS runs in one
  * coalesced task, with no shuffle. Every method computes SLen with it.
  *
  * The task reads the edges, the node ids and the sources, as
  * `Bgs.matchFixpoint` reads its inputs. More tasks buy nothing at this
  * scale (DESIGN.md §2), and a one-partition SLen keeps every later SLen
  * read at one task.
  *
  * SLen representation (Table II): `(src, dst, d)` rows for *finite*
  * distances only, `d ∈ [0, cap]`, including the self rows `(v, v, 0)`.
  * Absent pair ⇒ ∞. The cap is the largest bound a query reads (DESIGN.md
  * §3.1): a bound `k ≤ cap` reads only distances `1..k`, and every prefix
  * of a path of length ≤ `cap` is also ≤ `cap`, so the BFS and the
  * incremental steps stay exact for it. A row at `d = cap` marks where
  * truncation may start; with no such row, SLen is complete.
  */
object ApspBfs {

  /** SLen rows `(src, dst, d)` for every `src` in `sources` ("id" column)
    * that is a node of `g`, `d ≤ cap`; checkpointed, in one partition.
    */
  def fromSources(spark: SparkSession, g: DataGraph, sources: DataFrame, cap: Int): DataFrame = {
    import spark.implicits._
    // Rows (kind, a, b): kind 0 is an edge a → b, kind 1 a node a, kind 2
    // a source a.
    val edgeRows   = g.edges.select(lit(0).as("kind"), col("src").as("a"), col("dst").as("b"))
    val nodeRows   = g.nodes.select(lit(1).as("kind"), col("id").as("a"), lit(0L).as("b"))
    val sourceRows = sources.select(lit(2).as("kind"), col("id").as("a"), lit(0L).as("b"))

    // `coalesce`, not `repartition`: one task reads every input partition
    // without an exchange.
    edgeRows.union(nodeRows).union(sourceRows)
      .as[(Int, Long, Long)]
      .coalesce(1)
      .mapPartitions { rows =>
        val adj   = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
        val nodes = mutable.HashSet.empty[Long]
        val roots = mutable.HashSet.empty[Long]
        rows.foreach {
          case (0, a, b) => adj.getOrElseUpdate(a, mutable.ArrayBuffer.empty) += b
          case (1, a, _) => nodes += a
          case (_, a, _) => roots += a
        }
        localBfs(adj, roots.iterator.filter(nodes), cap)
      }
      .toDF("src", "dst", "d")
      .localCheckpoint()
  }

  /** Full SLen matrix (all nodes as sources). */
  def apsp(spark: SparkSession, g: DataGraph, cap: Int): DataFrame =
    fromSources(spark, g, g.nodes.select("id"), cap)

  /** Plain in-memory BFS from each root over an adjacency list; emits
    * `(root, v, d)` for every node within `cap` hops (including the root
    * itself at distance 0).
    */
  private def localBfs(adj: collection.Map[Long, collection.Seq[Long]], roots: Iterator[Long],
                       cap: Int): Iterator[(Long, Long, Int)] =
    roots.flatMap { r =>
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
