package repro.gen

import repro.core.{PEdge, PNode, PatternGraph}

import scala.collection.mutable
import scala.util.Random

/** Random pattern-graph generator — the substitute for `socnetv` (§VII).
  *
  * Controlled, as in the paper, by (1) node count, (2) edge count and
  * (3) the bounded path length per edge, drawn from 1..3. Patterns are
  * weakly connected: a random backbone edge links each node `p_i` to an
  * earlier node, then extra random edges are added up to the target.
  */
object PatternGen {

  /** The largest bound this and `UpdateGen` draw; neither draws `*`. */
  val MaxBound = 3

  /** Generate a pattern with `nNodes` nodes (ids `p0..`), ~`nEdges` edges
    * and labels drawn from `labels`. Deterministic in `seed`.
    */
  def generate(nNodes: Int, nEdges: Int, labels: Seq[String], seed: Long): PatternGraph = {
    require(nNodes >= 2 && labels.nonEmpty)
    val rnd   = new Random(seed)
    val nodes = (0 until nNodes).map(i => PNode(s"p$i", labels(rnd.nextInt(labels.size))))
    val ids   = nodes.map(_.id)

    val pairs = mutable.LinkedHashSet.empty[(String, String)]
    (1 until nNodes).foreach { i =>
      val j = rnd.nextInt(i)
      if (rnd.nextBoolean()) pairs += ((ids(j), ids(i))) else pairs += ((ids(i), ids(j)))
    }
    var attempts = 0
    while (pairs.size < nEdges && attempts < nEdges * 20) {
      attempts += 1
      val a = ids(rnd.nextInt(nNodes)); val b = ids(rnd.nextInt(nNodes))
      if (a != b) pairs += ((a, b))
    }
    val edges = pairs.toSeq.map { case (s, d) => PEdge(s, d, 1 + rnd.nextInt(MaxBound)) }
    PatternGraph(nodes, edges)
  }
}
