package repro.gen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.DataGraph

/** Synthetic labeled social graphs — the offline substitutes for the five
  * SNAP datasets of Table X (DESIGN.md §3.4).
  *
  * Properties preserved from the paper's setting:
  *  - node labels model job titles / roles (`L0..L{k-1}`), mildly skewed;
  *  - homophily: a tunable fraction of edges stays within a label class
  *    ("people with the same role usually connect with each other closely"
  *    [36]) — the premise of the label-based partition;
  *  - directed, unweighted, small-world-ish (random edges on top of the
  *    homophilous core).
  *
  * Deterministic in (n, m, nLabels, homophily, seed) within a session.
  */
object SocialGraph {

  /** > 1 skews node counts toward low label indices. */
  private val LabelSkew = 1.3

  /** Generate a graph with `n` nodes and ~`m` distinct directed edges
    * (self-loops and duplicate draws are dropped, so the realized count is
    * slightly below the drawn count; tests pin the tolerance).
    *
    * @param homophily probability that an edge stays within its source's
    *                  label class
    */
  def generate(spark: SparkSession, n: Long, m: Long, nLabels: Int,
               homophily: Double, seed: Long): DataGraph = {
    require(n > 1 && m > 0 && nLabels > 0 && homophily >= 0 && homophily <= 1)
    val nodes = spark.range(n).select(
      col("id"),
      concat(lit("L"),
             least(lit(nLabels - 1),
                   floor(pow(rand(seed), LabelSkew) * nLabels)).cast("int")).as("label")
    ).localCheckpoint()

    // Per-label dense ranks so a "random same-label node" is one join away.
    val ranked = nodes.withColumn(
      "rank", row_number().over(Window.partitionBy("label").orderBy("id")) - 1)
    val counts = ranked.groupBy("label").agg(count(lit(1)).as("cnt"))

    // Draw exactly m; dedup and self-loop removal shrink the realized count
    // slightly below m (documented "~m edges").
    val draft = spark.range(m).select(
      floor(rand(seed + 1) * n).cast("long").as("src"),
      rand(seed + 2).as("coin"),
      rand(seed + 3).as("r")
    ).join(nodes.select(col("id").as("src"), col("label").as("srcLabel")), Seq("src"))

    val same = draft
      .filter(col("coin") < homophily)
      .join(counts.withColumnRenamed("label", "srcLabel"), Seq("srcLabel"))
      .withColumn("dstRank", floor(col("r") * col("cnt")).cast("int"))
      .join(ranked.select(col("label").as("srcLabel"), col("rank").as("dstRank"),
                          col("id").as("dst")),
            Seq("srcLabel", "dstRank"))
      .select(col("src"), col("dst"))
    val cross = draft
      .filter(col("coin") >= homophily)
      .select(col("src"), floor(col("r") * n).cast("long").as("dst"))

    val edges = same.union(cross)
      .filter(col("src") =!= col("dst"))
      .distinct()
      .localCheckpoint()

    DataGraph(nodes, edges).cached()
  }
}
