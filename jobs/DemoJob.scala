package repro.jobs

import repro.core._
import repro.gen.{SocialGraph, UpdateGen}
import repro.bench.Harness

/** End-to-end demo mirroring the paper's running example: an IT-project
  * pattern (PM/SE/TE/S roles) over a small collaboration graph, an initial
  * query, a batch of updates, then UA-GPNM's subsequent query with its
  * EH-Tree statistics — the Example 1 / Example 2 flow at demo scale.
  *
  * Usage: `spark-submit --class repro.jobs.DemoJob <jar>`
  */
object DemoJob {
  def main(args: Array[String]): Unit = {
    val spark = Sessions.local("ua-gpnm-demo")
    try {
      val cap = Harness.Cap
      val g = SocialGraph.generate(spark, n = 120, m = 600, nLabels = 5,
                                   homophily = 0.8, seed = 42)
      val labels = g.nodes.select("label").distinct().collect().map(_.getString(0)).sorted
      // A 4-role pattern like Fig. 1(b): PM→SE(3), PM→S(3), SE→TE(2), S→TE(4).
      val p = PatternGraph(
        Seq(PNode("PM", labels(0)), PNode("SE", labels(1)),
            PNode("TE", labels(2)), PNode("S", labels(3))),
        Seq(PEdge("PM", "SE", 3), PEdge("PM", "S", 3),
            PEdge("SE", "TE", 2), PEdge("S", "TE", 4)))

      val (slen, iquery) = GpnmMethods.scratch(spark, g, p, cap)
      println("IQuery (Table I analogue):")
      Harness.collectResult(iquery).toSeq.sortBy(_._1).foreach { case (pu, vs) =>
        println(f"  $pu%-4s -> ${vs.toSeq.sorted.mkString(", ")}")
      }

      val snap = UpdateGen.snapshot(g)
      val dUps = UpdateGen.dataUpdates(snap, 2, 2, 1, 1, seed = 7)
      val pUps = UpdateGen.patternUpdates(p, snap.labels, 1, 1, 1, 0, seed = 8)
      println(s"\nUpdates: ${(dUps ++ pUps).map(_.uid).mkString(", ")}")

      val res = GpnmMethods.uaGpnm(spark, g, p, iquery, slen, dUps, pUps, cap)
      println(s"\nEH-Tree: eliminated=${res.stats.eliminated} of ${dUps.size + pUps.size}, " +
              s"fixpoint passes=${res.stats.fixpointPasses}, depth=${res.stats.treeDepth}")
      println("SQuery:")
      Harness.collectResult(res.squery).toSeq.sortBy(_._1).foreach { case (pu, vs) =>
        println(f"  $pu%-4s -> ${vs.toSeq.sorted.mkString(", ")}")
      }
    } finally spark.stop()
  }
}
