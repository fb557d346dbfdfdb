package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Bounded Graph Simulation matching (§III-A/B).
  *
  * The maximum BGS match relation is the greatest fixpoint of candidate
  * removal: start from label candidates and repeatedly delete `(u, v)`
  * when some pattern edge `(u, u', k)` has no witness `v'` with
  * `1 ≤ SLen(v, v') ≤ k` and `(u', v')` still a candidate. GPNM returns,
  * per pattern node, its surviving candidates — or ∅ for every node if any
  * pattern node ends up unmatched (then `G_P ⋢ G_D`).
  *
  * A pass is one Spark job with no shuffle: label candidates come from a
  * map-side lookup, and one coalesced task gets the candidates and the
  * SLen rows, runs the removal loop in memory and applies the completeness
  * rule.
  *
  * Conventions (DESIGN.md §3.7): `d(v,v)=0` never witnesses an edge; each
  * bound reads SLen up to [[PEdge.horizon]], which rejects a finite bound
  * above the SLen cap. `*` reads every stored distance, and is accepted
  * only on a provably complete SLen: one with no row at `d = cap`, since
  * any longer shortest path has a prefix of exactly `cap` hops. A pass
  * with a `*` edge that reads a row at `d = cap` fails.
  */
object Bgs {

  /** Label candidates `(pu, v)`: data nodes whose label equals the pattern
    * node's required label. Each node looks its label up in the pattern's
    * label → nodes map; two pattern nodes may share a label.
    */
  def labelCandidates(spark: SparkSession, g: DataGraph, p: PatternGraph): DataFrame = {
    import spark.implicits._
    val byLabel = p.nodes.groupMap(_.label)(_.id)
    g.nodes.as[(Long, String)]
      .flatMap { case (v, label) => byLabel.getOrElse(label, Nil).map(pu => (pu, v)) }
      .toDF("pu", "v")
  }

  /** Run the removal fixpoint from `cand0` and apply the all-nodes-matched
    * rule. Returns the GPNM result `(pu, v)`, checkpointed. Rejects a bound
    * above `cap` before any Spark job, and fails the job on a `*` edge over
    * a possibly truncated SLen.
    */
  def matchFixpoint(spark: SparkSession, cand0: DataFrame, p: PatternGraph,
                    slen: DataFrame, cap: Int): DataFrame = {
    import spark.implicits._
    val nodeIds = p.nodes.map(_.id)
    val edges   = p.edges.map(e => (e.src, e.dst, e.horizon(cap)))
    val star    = p.edges.exists(_.bound == PatternGraph.Star)
    // Rows (kind, pu, v, w, d): kind 0 is a candidate (pu, v), kind 1 an
    // SLen row v → w at distance d. Only distances that can ever witness
    // an edge are shipped.
    val candRows = cand0.select(lit(0).as("kind"), col("pu"), col("v"), lit(0L).as("w"), lit(0).as("d"))
    val slenRows = slen
      .filter(col("d") >= 1 && col("d") <= p.maxBound(cap))
      .select(lit(1).as("kind"), lit("").as("pu"), col("src").as("v"), col("dst").as("w"), col("d"))

    // `coalesce`, not `repartition`: one task reads every input partition
    // without an exchange. With no rows every `cand(pu)` is empty, so the
    // result is ∅.
    candRows.union(slenRows)
      .as[(Int, String, Long, Long, Int)]
      .coalesce(1)
      .mapPartitions { rows =>
        val cand = mutable.HashMap.from(nodeIds.map(_ -> mutable.HashSet.empty[Long]))
        val out  = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Long, Int)]]
        rows.foreach {
          case (0, pu, v, _, _) => cand.getOrElseUpdate(pu, mutable.HashSet.empty) += v
          case (_, _, v, w, d)  =>
            require(!star || d < cap,
                    s"a * bound reads SLen at its cap $cap (row $v -> $w), which may be truncated")
            out.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += ((w, d))
        }
        // Every round but the last removes a pair, so the loop ends within
        // |cand0| + 1 rounds.
        var removed = true
        while (removed) {
          removed = false
          edges.foreach { case (u, u2, k) =>
            val bad = cand(u).filterNot { v =>
              out.get(v).exists(_.exists { case (w, d) => d <= k && cand(u2).contains(w) })
            }
            if (bad.nonEmpty) { cand(u) --= bad; removed = true }
          }
        }
        if (nodeIds.forall(cand(_).nonEmpty))
          cand.iterator.flatMap { case (pu, vs) => vs.iterator.map(v => (pu, v)) }
        else Iterator.empty
      }
      .toDF("pu", "v")
      .localCheckpoint()
  }

  /** Full GPNM: label candidates then the removal fixpoint. */
  def run(spark: SparkSession, g: DataGraph, p: PatternGraph,
          slen: DataFrame, cap: Int): DataFrame =
    matchFixpoint(spark, labelCandidates(spark, g, p), p, slen, cap)
}
