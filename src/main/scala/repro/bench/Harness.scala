package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.gen.{PatternGen, SocialGraph, UpdateGen}

import scala.collection.mutable

/** One SNAP-substitute dataset at laptop scale (DESIGN.md §3.4): relative
  * sizes/densities mirror Table X's ordering.
  */
final case class DatasetSpec(name: String, paperName: String,
                             nNodes: Long, nEdges: Long, nLabels: Int,
                             homophily: Double, seed: Long)

object Datasets {
  /** Substitutes for Table X, smallest to largest. */
  val all: Seq[DatasetSpec] = Seq(
    DatasetSpec("email-EU-core-lite", "email-EU-core", 150, 1500, 6, 0.80, 11),
    DatasetSpec("DBLP-lite", "DBLP", 600, 2400, 8, 0.85, 12),
    DatasetSpec("Amazon-lite", "Amazon", 700, 2600, 8, 0.85, 13),
    DatasetSpec("Youtube-lite", "Youtube", 1000, 3500, 8, 0.85, 14),
    DatasetSpec("LiveJournal-lite", "LiveJournal", 1400, 12000, 8, 0.85, 15),
  )

  /** Mid-size dataset used for the ΔG-scale sweep (Table XIII). */
  val mid: DatasetSpec = all(1)
}

/** Measured seconds per method for one scenario (or averaged). */
final case class MethodTimes(ua: Double, noPar: Double, eh: Double, inc: Double) {
  def +(o: MethodTimes): MethodTimes =
    MethodTimes(ua + o.ua, noPar + o.noPar, eh + o.eh, inc + o.inc)
  def /(k: Double): MethodTimes = MethodTimes(ua / k, noPar / k, eh / k, inc / k)
  /** % reduction of UA vs (INC, EH, NoPar) — the Table XII/XIV derivation. */
  def reductions: (Double, Double, Double) =
    (100.0 * (inc - ua) / inc, 100.0 * (eh - ua) / eh, 100.0 * (noPar - ua) / noPar)
}

/** The evaluation harness shared by the bench suites and the spark-submit
  * jobs: builds a dataset, the initial (SLen, IQuery) inputs, draws update
  * workloads and times SQuery delivery per method (DESIGN.md §3.6).
  */
object Harness {

  /** SLen cap: the largest bound the workload's generators draw. A bound
    * `k` reads only distances `1..k`, so a larger cap would compute and
    * maintain rows that no query reads (DESIGN.md §3.1).
    */
  val Cap: Int = PatternGen.MaxBound

  /** Per-dataset state shared across scenarios: the graph and its SLen
    * matrix (pattern-independent, so computed once per dataset).
    */
  final case class PreparedGraph(spec: DatasetSpec, graph: DataGraph,
                                 labels: Seq[String], slen: DataFrame) {
    def release(): Unit = { slen.unpersist() }
  }

  /** Per-scenario state: adds the pattern and the initial-query result
    * (IQuery and SLen are *inputs* per §III-C).
    */
  final case class Prepared(spec: DatasetSpec, graph: DataGraph,
                            pattern: PatternGraph, slen: DataFrame, iquery: DataFrame)

  def prepareGraph(spark: SparkSession, spec: DatasetSpec): PreparedGraph = {
    val g = SocialGraph.generate(spark, spec.nNodes, spec.nEdges, spec.nLabels,
                                 spec.homophily, spec.seed)
    val labels = g.nodes.select("label").distinct().collect().map(_.getString(0)).sorted.toSeq
    val slen = SlenOps(Cap).fullApsp(spark, g)
    slen.cache().count()
    PreparedGraph(spec, g, labels, slen)
  }

  def preparePattern(spark: SparkSession, pg: PreparedGraph, patternNodes: Int,
                     patternSeed: Long): Prepared = {
    val p = PatternGen.generate(patternNodes, patternNodes + 2, pg.labels, patternSeed)
    val iquery = Bgs.run(spark, pg.graph, p, pg.slen, Cap)
    Prepared(pg.spec, pg.graph, p, pg.slen, iquery)
  }

  /** One scenario's update workload. */
  final case class Workload(dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate])

  def drawWorkload(prep: Prepared, nDataUps: Int, seed: Long): Workload = {
    val snap   = UpdateGen.snapshot(prep.graph)
    // Split |ΔG_D| evenly over the four update kinds, remainder to the first.
    val counts = Array.fill(4)(nDataUps / 4)
    (0 until nDataUps % 4).foreach(i => counts(i) += 1)
    val dUps = UpdateGen.dataUpdates(snap, nEdgeIns = counts(0), nEdgeDel = counts(1),
                                     nNodeIns = counts(2), nNodeDel = counts(3), seed = seed)
    val pUps = UpdateGen.patternUpdates(prep.pattern, snap.labels,
                                        nEdgeIns = 1, nEdgeDel = 1, nNodeIns = 1, nNodeDel = 1,
                                        seed = seed + 1)
    Workload(dUps, pUps)
  }

  /** Ids of currently persisted RDDs (caches + localCheckpoint blocks). */
  def persistedIds(spark: SparkSession): Set[Int] =
    spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** Drop every persisted RDD not in `keep`. Long runs of per-update
    * `localCheckpoint`s otherwise fill the block manager and turn the
    * later-timed methods into GC/eviction storms. Only call this when the
    * checkpointed results are no longer needed (their lineage is gone).
    */
  def cleanupExcept(spark: SparkSession, keep: Set[Int]): Unit = {
    spark.sparkContext.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!keep.contains(id)) rdd.unpersist(blocking = false)
    }
  }

  /** Run the four methods on one scenario and time SQuery delivery.
    * With `verify`, each method's result is collected after its timed
    * region and checked equal to a from-scratch GPNM on the updated graphs.
    * Checkpoint blocks are dropped between methods so each is timed under
    * the same memory conditions.
    */
  def runScenario(spark: SparkSession, prep: Prepared, w: Workload,
                  verify: Boolean): MethodTimes = {
    import prep._
    val keep    = persistedIds(spark)
    val results = mutable.LinkedHashMap.empty[String, Map[String, Set[Long]]]
    def timed(method: String)(run: => GpnmMethods.RunResult): Double = {
      val t0 = System.nanoTime()
      val sq = run.squery
      sq.count()
      val secs = (System.nanoTime() - t0) / 1e9
      if (verify) results(method) = collectResult(sq)
      cleanupExcept(spark, keep)
      secs
    }
    val tInc   = timed("INC-GPNM")(GpnmMethods.incGpnm(spark, graph, pattern, iquery, slen, w.dUps, w.pUps, Cap))
    val tEh    = timed("EH-GPNM")(GpnmMethods.ehGpnm(spark, graph, pattern, iquery, slen, w.dUps, w.pUps, Cap))
    // UA-GPNM and UA-GPNM-NoPar run the same code (no label scoping,
    // DESIGN.md §3.3); both are timed to keep Table XI's columns.
    val tNoPar = timed("UA-GPNM-NoPar")(GpnmMethods.uaGpnm(spark, graph, pattern, iquery, slen, w.dUps, w.pUps, Cap))
    val tUa    = timed("UA-GPNM")(GpnmMethods.uaGpnm(spark, graph, pattern, iquery, slen, w.dUps, w.pUps, Cap))
    if (verify) {
      val patNew = Updates.applyPatternAll(pattern, w.pUps)
      val gNew   = applyAllData(spark, graph, w.dUps)
      val exp    = collectResult(GpnmMethods.scratch(spark, gNew, patNew, Cap)._2)
      results.foreach { case (method, got) =>
        require(got == exp, s"$method result mismatch on ${spec.name}")
      }
      cleanupExcept(spark, keep)
    }
    MethodTimes(tUa, tNoPar, tEh, tInc)
  }

  /** Apply `ΔG_D` to a graph without SLen maintenance (verification path). */
  def applyAllData(spark: SparkSession, g: DataGraph, dUps: Seq[DataUpdate]): DataGraph =
    dUps.foldLeft(g)(_.update(spark, _))

  /** Canonical driver-side form of a GPNM result for comparisons. */
  def collectResult(df: DataFrame): Map[String, Set[Long]] =
    df.collect().map(r => (r.getString(0), r.getLong(1)))
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap

  // ---------------------------------------------------------------- output

  /** Format a paper-vs-measured timing table (Tables XI / XIII). */
  def timingTable(title: String,
                  rows: Seq[(String, MethodTimes, (String, Double, Double, Double, Double))]): String = {
    val sb = new StringBuilder
    sb ++= s"\n$title\n"
    sb ++= f"${"row"}%-22s | ${"UA-GPNM"}%-18s | ${"UA-GPNM-NoPar"}%-18s | ${"EH-GPNM"}%-18s | ${"INC-GPNM"}%-18s\n"
    sb ++= ("-" * 108) + "\n"
    rows.foreach { case (name, m, (_, pUa, pNoPar, pEh, pInc)) =>
      def cell(ours: Double, paper: Double) = f"$ours%7.2fs (p:$paper%8.2f)"
      sb ++= f"$name%-22s | ${cell(m.ua, pUa)} | ${cell(m.noPar, pNoPar)} | ${cell(m.eh, pEh)} | ${cell(m.inc, pInc)}\n"
    }
    val avg = rows.map(_._2).reduce(_ + _) / rows.size
    sb ++= f"${"Average"}%-22s | ${avg.ua}%7.2fs            | ${avg.noPar}%7.2fs            | ${avg.eh}%7.2fs            | ${avg.inc}%7.2fs\n"
    sb.toString
  }

  /** Format the derived %-reduction table (Tables XII / XIV). */
  def percentTable(title: String,
                   rows: Seq[(String, MethodTimes, (String, Double, Double, Double))]): String = {
    val sb = new StringBuilder
    sb ++= s"\n$title  (UA-GPNM reduction vs ...)\n"
    sb ++= f"${"row"}%-22s | ${"vs INC-GPNM"}%-24s | ${"vs EH-GPNM"}%-24s | ${"vs UA-GPNM-NoPar"}%-24s\n"
    sb ++= ("-" * 104) + "\n"
    rows.foreach { case (name, m, (_, pInc, pEh, pNoPar)) =>
      val (rInc, rEh, rNoPar) = m.reductions
      def cell(ours: Double, paper: Double) = f"$ours%6.2f%% less (p:$paper%6.2f%%)"
      sb ++= f"$name%-22s | ${cell(rInc, pInc)} | ${cell(rEh, pEh)} | ${cell(rNoPar, pNoPar)}\n"
    }
    sb.toString
  }
}
