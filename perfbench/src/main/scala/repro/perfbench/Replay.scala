package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.partition.LabelPartition
import repro.sssp.IncApsp

/** The four evaluated methods, called exactly as a user calls them. */
sealed abstract class Method(val key: String) {
  def run(spark: SparkSession, in: Inputs): GpnmMethods.RunResult = this match {
    case Method.Ua    => GpnmMethods.uaGpnm(spark, in.graph, in.pattern, in.iquery, in.slen,
                                            in.dUps, in.pUps, Setup.Cap, partitioned = true)
    case Method.NoPar => GpnmMethods.uaGpnm(spark, in.graph, in.pattern, in.iquery, in.slen,
                                            in.dUps, in.pUps, Setup.Cap, partitioned = false)
    case Method.Eh    => GpnmMethods.ehGpnm(spark, in.graph, in.pattern, in.iquery, in.slen,
                                            in.dUps, in.pUps, Setup.Cap)
    case Method.Inc   => GpnmMethods.incGpnm(spark, in.graph, in.pattern, in.iquery, in.slen,
                                             in.dUps, in.pUps, Setup.Cap)
  }
}

object Method {
  case object Ua    extends Method("ua")
  case object NoPar extends Method("nopar")
  case object Eh    extends Method("eh")
  case object Inc   extends Method("inc")
  val all: Seq[Method] = Seq(Ua, NoPar, Eh, Inc)
}

/** What a replay did: its result and the work counters `RunStats` also
  * reports, plus the roots that got their own pass.
  */
final case class Replayed(squery: DataFrame, passes: Int, eliminated: Int, roots: Int)

/** Traced replays of `GpnmMethods`: the same public calls into `core`,
  * `sssp` and `partition`, in the same order, each inside a span. The
  * caller checks the replay against the untraced method, so a replay that
  * drifts from the program fails instead of reporting stale layers.
  *
  * Every span's result is materialised inside it: the layer calls return
  * eagerly checkpointed DataFrames or driver-side values, except
  * `IncApsp.changedPairs`, whose span also covers its consumer.
  */
final class Replay(spark: SparkSession, t: Tracer) {
  private val cap = Setup.Cap

  def run(m: Method, in: Inputs): Replayed = m match {
    case Method.Ua    => ua(in, partitioned = true)
    case Method.NoPar => ua(in, partitioned = false)
    case Method.Eh    => eh(in)
    case Method.Inc   => inc(in)
  }

  private def pass(g: DataGraph, p: PatternGraph, slen: DataFrame): DataFrame =
    t.span("bgs.pass")(Bgs.run(spark, g, p, slen, cap))

  private def inc(in: Inputs): Replayed = {
    val ops     = SlenOps(cap, partitioned = false)
    var g       = in.graph
    var s       = in.slen
    var matches = in.iquery
    var passes  = 0
    in.dUps.foreach { u =>
      val (g2, s2) = applyData(g, s, u, ops)
      val n = t.span("incapsp.changed_pairs")(IncApsp.changedPairs(s, s2).count())
      t.count("incapsp.changed_pairs", n.toDouble)
      g = g2; s = s2
      matches = pass(g, in.pattern, s); passes += 1
    }
    var pat = in.pattern
    in.pUps.foreach { u =>
      pat = Updates.applyPattern(pat, u)
      matches = pass(g, pat, s); passes += 1
    }
    Replayed(matches, passes, eliminated = 0, roots = passes)
  }

  private def eh(in: Inputs): Replayed = {
    val (g, s, affSets) = advanceData(in, SlenOps(cap, partitioned = false))
    val tree = t.span("ehtree.build")(EhTree.build(affSets.map { case (u, a) => (u: Update, a) }))
    var matches = in.iquery
    var passes  = 0
    tree.uneliminated.foreach { _ => matches = pass(g, in.pattern, s); passes += 1 }
    var pat = in.pattern
    in.pUps.foreach { u =>
      pat = Updates.applyPattern(pat, u)
      matches = pass(g, pat, s); passes += 1
    }
    Replayed(matches, passes, tree.eliminated.size, tree.uneliminated.size)
  }

  private def ua(in: Inputs, partitioned: Boolean): Replayed = {
    val (g, s, affSets) = advanceData(in, SlenOps(cap, partitioned))
    val ctx = t.span("der.context")(Der.context(in.graph, in.iquery))
    val canSets = in.pUps.map { u =>
      val can = t.span("der.can")(Der.candidateNodes(spark, u, in.pattern, ctx, in.slen, cap))
      t.count("der.can_nodes", can.size.toDouble)
      u -> can
    }
    val cross = canSets
      .collect { case (pu: PatEdgeIns, can) => (pu, can) }
      .flatMap { case (pu, can) =>
        affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.collect {
          case (du, _) if t.span("der.cancel")(Der.cancelsUnderNewSlen(spark, pu, ctx, s, cap)) =>
            (pu.uid, du.uid)
        }
      }
      .distinct
    t.count("der.cancellations", cross.size.toDouble)
    val entries = affSets.map { case (u, a) => (u: Update, a) } ++
                  canSets.map { case (u, c) => (u: Update, c) }
    val tree   = t.span("ehtree.build")(EhTree.build(entries, cross))
    val patNew = Updates.applyPatternAll(in.pattern, in.pUps)
    var matches = in.iquery
    var passes  = 0
    tree.uneliminated.foreach { _ => matches = pass(g, patNew, s); passes += 1 }
    Replayed(matches, passes, tree.eliminated.size, tree.uneliminated.size)
  }

  private def advanceData(in: Inputs, ops: SlenOps): (DataGraph, DataFrame, Seq[(DataUpdate, Set[Long])]) = {
    var g = in.graph
    var s = in.slen
    val affSets = in.dUps.map { u =>
      val (g2, s2) = applyData(g, s, u, ops)
      val aff = t.span("incapsp.changed_pairs")(Der.affectedNodes(IncApsp.changedPairs(s, s2)))
      t.count("der.aff_nodes", aff.size.toDouble)
      g = g2; s = s2
      u -> aff
    }
    (g, s, affSets)
  }

  /** `Engine.applyDataUpdate`, one span per layer call. */
  private def applyData(g: DataGraph, slen: DataFrame, u: DataUpdate, ops: SlenOps): (DataGraph, DataFrame) =
    u match {
      case DataEdgeIns(a, b) =>
        val g2 = t.span("graphs.update")(g.insertEdge(spark, a, b))
        (g2, insertEdge(slen, a, b, ops))
      case DataEdgeDel(a, b) =>
        val g2 = t.span("graphs.update")(g.deleteEdge(a, b))
        (g2, t.span("incapsp.edge_del")(IncApsp.deleteEdge(slen, a, b, recompute(ops, g2))))
      case DataNodeIns(id, label, outTo, inFrom) =>
        val g2 = t.span("graphs.update")(g.insertNode(spark, id, label, outTo, inFrom))
        val s2 = t.span("incapsp.node_ins") {
          val base = IncApsp.insertNode(spark, slen, id)
          (outTo.map(x => (id, x)) ++ inFrom.map(x => (x, id)))
            .foldLeft(base) { case (s, (a, b)) => insertEdge(s, a, b, ops) }
        }
        (g2, s2)
      case DataNodeDel(id) =>
        val g2 = t.span("graphs.update")(g.removeNode(id))
        (g2, t.span("incapsp.node_del")(IncApsp.deleteNode(slen, id, recompute(ops, g2))))
    }

  /** Edge inserts get their own span, also inside a node insert. */
  private def insertEdge(slen: DataFrame, a: Long, b: Long, ops: SlenOps): DataFrame =
    t.span("incapsp.edge_ins")(IncApsp.insertEdge(slen, a, b, ops.cap))

  /** The engine's `IncApsp.Recompute` closure inside its own span, after a
    * probe that measures how much of the graph the recompute touches.
    */
  private def recompute(ops: SlenOps, g2: DataGraph): IncApsp.Recompute = {
    val engine = ops.recompute(spark, g2)
    val name   = if (ops.partitioned) "partitionedapsp.recompute" else "apspbfs.recompute"
    sources => {
      t.probe {
        val ids     = sources.select("id").distinct().collect().map(_.getLong(0))
        val labelOf = g2.nodes.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
        val comp    = LabelPartition.combinedComponents(g2)
        val touched = ids.flatMap(labelOf.get).map(comp).toSet
        val n       = labelOf.size.toDouble
        t.count("recompute.sources", ids.length.toDouble)
        t.count("recompute.source_frac", ids.length / n)
        t.count("labelpartition.scope_frac", labelOf.values.count(l => touched(comp(l))) / n)
      }
      t.span(name)(engine(sources))
    }
  }
}
