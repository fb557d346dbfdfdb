package repro

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import repro.core._

import scala.util.Random

/** Shared helpers for the test suites: seeded random graphs/patterns on the
  * driver (so [[repro.core.LocalRef]] can provide ground truth) and
  * conversions to DataFrames.
  */
object TestKit {

  /** A driver-side labeled digraph. */
  final case class LocalGraph(nodes: Seq[(Long, String)], edges: Seq[(Long, Long)]) {
    def nodeIds: Seq[Long] = nodes.map(_._1)
    def labels: Seq[String] = nodes.map(_._2).distinct.sorted
    def toDataGraph(spark: SparkSession): DataGraph =
      DataGraph.fromLocal(spark, nodes, edges)
  }

  /** Seeded homophilous random graph, small enough for brute force. */
  def randomGraph(seed: Long, n: Int = 40, m: Int = 120, nLabels: Int = 4,
                  homophily: Double = 0.7): LocalGraph = {
    val rnd    = new Random(seed)
    val nodes  = (0L until n).map(i => (i, s"L${rnd.nextInt(nLabels)}"))
    val byLab  = nodes.groupBy(_._2).view.mapValues(_.map(_._1).toVector).toMap
    val edges  = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
    var guard  = 0
    while (edges.size < m && guard < m * 50) {
      guard += 1
      val s = rnd.nextInt(n).toLong
      val d =
        if (rnd.nextDouble() < homophily) {
          val pool = byLab(nodes(s.toInt)._2)
          pool(rnd.nextInt(pool.size))
        } else rnd.nextInt(n).toLong
      if (s != d) edges += ((s, d))
    }
    LocalGraph(nodes, edges.toSeq)
  }

  /** Seeded random pattern over the graph's labels. */
  def randomPattern(g: LocalGraph, seed: Long, nNodes: Int = 4, nEdges: Int = 5): PatternGraph =
    repro.gen.PatternGen.generate(nNodes, nEdges, g.labels, seed)

  /** `n` pattern updates, each drawn from the pattern as the earlier ones
    * left it, so that a later update can delete an edge or node an earlier
    * one inserted (`UpdateGen.patternUpdates` draws every delete from the
    * original pattern). Each draw picks one of the four kinds that has a
    * candidate, then a candidate; a delete takes one of the batch's own
    * insertions half of the time when there is one. No uid repeats, and
    * deletes keep at least two nodes and one edge.
    */
  def dependentPatternUpdates(p: PatternGraph, labels: Seq[String], n: Int,
                              seed: Long): Seq[PatternUpdate] = {
    val rnd = new Random(seed)
    def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
    def bound(): Int = 1 + rnd.nextInt(repro.gen.PatternGen.MaxBound)
    val out = scala.collection.mutable.Buffer.empty[PatternUpdate]
    var cur = p
    while (out.size < n) {
      val used   = out.map(_.uid).toSet
      val ids    = cur.nodes.map(_.id)
      val q      = PNode(s"q${out.size}", pick(labels))
      val anchor = pick(ids)
      val kinds: Seq[Seq[PatternUpdate]] = Seq(
        for (a <- ids; b <- ids if a != b && !cur.edges.exists(e => e.src == a && e.dst == b))
          yield PatEdgeIns(PEdge(a, b, bound())),
        if (cur.edges.size > 1) cur.edges.map(e => PatEdgeDel(e.src, e.dst)) else Nil,
        Seq(PatNodeIns(q, if (rnd.nextBoolean()) PEdge(anchor, q.id, bound()) else PEdge(q.id, anchor, bound()))),
        if (ids.size > 2) ids.map(PatNodeDel(_)) else Nil
      ).map(_.filterNot(u => used(u.uid))).filter(_.nonEmpty)
      val kind = pick(kinds)
      val own  = kind.filter(deletesInserted(p))
      val u    = if (own.nonEmpty && rnd.nextBoolean()) pick(own) else pick(kind)
      out += u
      cur = Updates.applyPattern(cur, u)
    }
    out.toSeq
  }

  /** Whether `u` deletes a pattern edge or node that `p` lacks: in a batch
    * over `p`, one that an earlier update inserted.
    */
  def deletesInserted(p: PatternGraph)(u: PatternUpdate): Boolean = u match {
    case PatEdgeDel(s, d) => !p.edges.exists(e => e.src == s && e.dst == d)
    case PatNodeDel(id)   => !p.hasNode(id)
    case _                => false
  }

  /** Collect a SLen DataFrame to the LocalRef map form. */
  def collectSlen(df: DataFrame): Map[(Long, Long), Int] =
    df.collect().map(r => ((r.getLong(0), r.getLong(1)), r.getInt(2))).toMap

  /** Collect a GPNM result `(pu, v)` to pattern-node → match-set form,
    * including empty sets for unmatched pattern nodes of `p`.
    */
  def collectMatches(df: DataFrame, p: PatternGraph): Map[String, Set[Long]] = {
    val m = df.collect().map(r => (r.getString(0), r.getLong(1)))
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    p.nodes.map(n => n.id -> m.getOrElse(n.id, Set.empty[Long])).toMap
  }

  /** Number of Spark jobs that `body` launches. Queued events of earlier
    * jobs are delivered before the listener is added, and `body`'s own
    * before it is read.
    */
  def countJobs(spark: SparkSession)(body: => Any): Int = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc)
    val jobs     = new java.util.concurrent.atomic.AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try { body; ListenerBusDrain(sc) } finally sc.removeSparkListener(listener)
    jobs.get
  }

  /** Fails when `df`'s executed plan has an exchange (a shuffle or a
    * broadcast), also inside an adaptive plan.
    */
  def assertNoExchange(df: DataFrame): Unit = {
    val plan = df.queryExecution.executedPlan
    val exchanges = new AdaptiveSparkPlanHelper {}.collect(plan) { case e: Exchange => e }
    assert(exchanges.isEmpty, s"exchange in the executed plan:\n$plan")
  }

  /** Apply data updates to a LocalGraph (reference semantics). */
  def applyDataLocal(g: LocalGraph, us: Seq[DataUpdate]): LocalGraph =
    us.foldLeft(g) {
      case (cur, DataEdgeIns(a, b)) =>
        cur.copy(edges = (cur.edges :+ ((a, b))).distinct)
      case (cur, DataEdgeDel(a, b)) =>
        cur.copy(edges = cur.edges.filterNot(_ == ((a, b))))
      case (cur, DataNodeIns(id, l, out, in)) =>
        LocalGraph((cur.nodes :+ ((id, l))).distinct,
                   (cur.edges ++ out.map((id, _)) ++ in.map((_, id))).distinct)
      case (cur, DataNodeDel(id)) =>
        LocalGraph(cur.nodes.filterNot(_._1 == id),
                   cur.edges.filterNot(e => e._1 == id || e._2 == id))
    }
}
