package repro.gen

import org.apache.spark.sql.functions._
import repro.core._

import scala.collection.mutable
import scala.util.Random

/** Driver-side view of a data graph used to draw valid updates from
  * (bench graphs have at most a few thousand nodes).
  */
final case class GraphSnapshot(nodeIds: Vector[Long],
                               labelOf: Map[Long, String],
                               edges: Set[(Long, Long)],
                               labels: Vector[String]) {
  def maxId: Long = if (nodeIds.isEmpty) 0L else nodeIds.max
}

/** Update-workload generator implementing the experiment protocol of §VII:
  * per run, remove and insert edges and nodes of `G_D`, and remove and
  * insert nodes and edges of `G_P`, at a configurable scale
  * (DESIGN.md §3.5 documents the scale-down from the paper's 100–500).
  *
  * Updates are emitted in kind order (edge inserts, edge deletes, node
  * inserts, node deletes) and are valid when applied in sequence.
  */
object UpdateGen {

  /** Collect the driver-side snapshot of a (small) data graph. */
  def snapshot(g: DataGraph): GraphSnapshot = {
    val ns = g.nodes.select("id", "label").collect().map(r => (r.getLong(0), r.getString(1)))
    val es = g.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    GraphSnapshot(ns.map(_._1).toVector.sorted, ns.toMap, es,
                  ns.map(_._2).distinct.sorted.toVector)
  }

  /** Draw `ΔG_D`: `nEdgeIns` + `nEdgeDel` + `nNodeIns` + `nNodeDel` updates. */
  def dataUpdates(snap: GraphSnapshot, nEdgeIns: Int, nEdgeDel: Int,
                  nNodeIns: Int, nNodeDel: Int, seed: Long): Seq[DataUpdate] = {
    val rnd = new Random(seed)
    val out = mutable.Buffer.empty[DataUpdate]
    // Degree-biased node sampling (endpoint of a random edge ≈ degree-
    // proportional): social-graph churn concentrates on connected users,
    // and it is what makes affected-node sets overlap/nest the way the
    // paper's real graphs exhibit (DESIGN.md §3.5).
    val edgeSeq = snap.edges.toSeq.sorted
    def randNode(): Long =
      if (edgeSeq.nonEmpty && rnd.nextDouble() < 0.7) {
        val (a, b) = edgeSeq(rnd.nextInt(edgeSeq.size))
        if (rnd.nextBoolean()) a else b
      } else snap.nodeIds(rnd.nextInt(snap.nodeIds.size))

    val inserted = mutable.Set.empty[(Long, Long)]
    var guard = 0
    while (inserted.size < nEdgeIns && guard < nEdgeIns * 100) {
      guard += 1
      val a = randNode(); val b = randNode()
      if (a != b && !snap.edges.contains((a, b)) && !inserted.contains((a, b)))
        inserted += ((a, b))
    }
    out ++= inserted.toSeq.sorted.map { case (a, b) => DataEdgeIns(a, b) }

    val deletable = rnd.shuffle(snap.edges.toSeq.sorted).take(nEdgeDel)
    out ++= deletable.map { case (a, b) => DataEdgeDel(a, b) }

    (0 until nNodeIns).foreach { i =>
      val id    = snap.maxId + 1 + i
      val label = snap.labels(rnd.nextInt(snap.labels.size))
      out += DataNodeIns(id, label, outTo = Seq(randNode()), inFrom = Seq(randNode()))
    }

    val delNodes = rnd.shuffle(snap.nodeIds).take(nNodeDel)
    out ++= delNodes.map(DataNodeDel(_))
    out.toSeq
  }

  /** Draw `ΔG_P` against pattern `p`; labels come from the data graph so
    * inserted pattern nodes can match something.
    */
  def patternUpdates(p: PatternGraph, labels: Seq[String],
                     nEdgeIns: Int, nEdgeDel: Int, nNodeIns: Int, nNodeDel: Int,
                     seed: Long): Seq[PatternUpdate] = {
    val rnd = new Random(seed)
    val out = mutable.Buffer.empty[PatternUpdate]
    val ids = p.nodes.map(_.id)
    def randId(): String = ids(rnd.nextInt(ids.size))
    def bound(): Int = 1 + rnd.nextInt(PatternGen.MaxBound)

    val existing = p.edges.map(e => (e.src, e.dst)).toSet
    val inserted = mutable.Set.empty[(String, String)]
    var guard = 0
    while (inserted.size < nEdgeIns && guard < nEdgeIns * 100) {
      guard += 1
      val a = randId(); val b = randId()
      if (a != b && !existing.contains((a, b)) && !inserted.contains((a, b)))
        inserted += ((a, b))
    }
    out ++= inserted.toSeq.sorted.map { case (a, b) => PatEdgeIns(PEdge(a, b, bound())) }

    out ++= rnd.shuffle(p.edges).take(math.min(nEdgeDel, math.max(0, p.edges.size - 1)))
      .map(e => PatEdgeDel(e.src, e.dst))

    (0 until nNodeIns).foreach { i =>
      val n      = PNode(s"q$i", labels(rnd.nextInt(labels.size)))
      val anchor = randId()
      val attach = if (rnd.nextBoolean()) PEdge(anchor, n.id, bound()) else PEdge(n.id, anchor, bound())
      out += PatNodeIns(n, attach)
    }

    // Never delete below two original nodes so the pattern stays meaningful.
    val deletableN = rnd.shuffle(ids).take(math.min(nNodeDel, math.max(0, ids.size - 2)))
    out ++= deletableN.map(PatNodeDel(_))
    out.toSeq
  }
}
