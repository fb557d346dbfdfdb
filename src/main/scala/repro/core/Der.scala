package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Detection of elimination relationships (§IV-B, Algorithms 1–3).
  *
  * - DER-I: per pattern update, the candidate nodes `Can_N(U_Pi)` (split
  *   conceptually into `Can_RN` — may be removed — and `Can_AN` — may be
  *   added); `U_Pa ⊵ U_Pb` iff `Can_N(U_Pa) ⊇ Can_N(U_Pb)`.
  * - DER-II: per data update, the affected nodes `Aff_N(U_Di)` (endpoints
  *   of pairs whose SLen changed); `U_Da ⊵ U_Db` iff coverage.
  * - DER-III: `U_Di ⇔ U_Pi` when `Aff_N(U_Di) ⊇ Can_N(U_Pi)` and the
  *   updated SLen already satisfies the inserted bound for every match
  *   pair, i.e. the two updates cancel.
  *
  * The sets are collected to the driver: they index at most |V_D| ids per
  * update and feed the (driver-side) EH-Tree, which applies the DER-I/II
  * coverage rule ([[EhTree.build]]).
  */
object Der {

  /** Driver-side snapshot of the inputs DER reads repeatedly: label → node
    * ids and pattern node → IQuery matches. Built with two collects so a
    * batch of updates does not re-scan per set (the bound checks still read
    * SLen, through [[violations]]).
    */
  final case class Context(labelIds: Map[String, Set[Long]],
                           matches: Map[String, Set[Long]]) {
    def labelSet(label: String): Set[Long] = labelIds.getOrElse(label, Set.empty)
    def matchSet(pu: String): Set[Long]    = matches.getOrElse(pu, Set.empty)
  }

  /** Build the [[Context]] for a (data graph, IQuery) pair. */
  def context(g: DataGraph, iquery: DataFrame): Context = {
    val labels = g.nodes.collect()
      .map(r => (r.getLong(0), r.getString(1)))
      .groupBy(_._2).view.mapValues(_.map(_._1).toSet).toMap
    val ms = iquery.collect()
      .map(r => (r.getString(0), r.getLong(1)))
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    Context(labels, ms)
  }

  /** Pairs `(v, v')` of `left × right` whose SLen entry fails `1..bound`
    * (missing ⇒ ∞ ⇒ violation). One SLen filter collects the witnessed
    * pairs; the rest of `left × right` is taken on the driver, where both
    * sets already are. Returns the violating pair count and the endpoints
    * involved.
    */
  private def violations(slen: DataFrame, left: Set[Long], right: Set[Long],
                         bound: Int, cap: Int): (Long, Set[Long]) = {
    if (left.isEmpty || right.isEmpty) return (0L, Set.empty)
    val witnessed = slen
      .filter(col("src").isin(left.toSeq: _*) && col("dst").isin(right.toSeq: _*) &&
              col("d").between(1, math.min(bound, cap)))
      .select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val viol = for (v <- left; w <- right if !witnessed((v, w))) yield (v, w)
    (viol.size.toLong, viol.flatMap { case (v, w) => Set(v, w) })
  }

  /** `Can_N(U_Pi)` per Algorithm 1, extended to the four pattern-update
    * kinds (DESIGN.md: the sets are an *index* for elimination ordering;
    * correctness is carried by the final fixpoint). Like
    * [[cancelsUnderNewSlen]], it keeps `spark`, unread, for `perfbench/`.
    */
  def candidateNodes(spark: SparkSession, u: PatternUpdate, p: PatternGraph,
                     ctx: Context, slen: DataFrame, cap: Int): Set[Long] =
    u match {
      case PatEdgeIns(PEdge(s, t, bound)) =>
        // Can_RN: match pairs of (s, t) violating the new bound may be removed.
        violations(slen, ctx.matchSet(s), ctx.matchSet(t), bound, cap)._2
      case PatEdgeDel(s, t) =>
        // Can_AN: label candidates currently excluded may become matches.
        (ctx.labelSet(p.node(s).label) -- ctx.matchSet(s)) ++
          (ctx.labelSet(p.node(t).label) -- ctx.matchSet(t))
      case PatNodeIns(n, _) =>
        // Every node with the new label may enter the result.
        ctx.labelSet(n.label)
      case PatNodeDel(id) =>
        // The node's matches leave the result; the neighbours' excluded
        // label candidates may enter once the constraint disappears.
        ctx.matchSet(id) ++ p.neighbours(id).flatMap { w =>
          ctx.labelSet(p.node(w).label) -- ctx.matchSet(w)
        }
    }

  /** `Aff_N(U_Di)`: the endpoints of a changed-pair set, such as the one
    * an SLen step returns (`IncApsp.Step.changed`). Each partition sends
    * its distinct endpoints (at most |V_D|), so one job collects the set.
    */
  def affectedNodes(changed: DataFrame): Set[Long] = {
    val spark = changed.sparkSession
    import spark.implicits._
    changed.select(col("src"), col("dst")).as[(Long, Long)]
      .mapPartitions(ps => ps.flatMap { case (s, d) => Iterator(s, d) }.toSet.iterator)
      .collect().toSet
  }

  /** DER-III coverage gate: `Aff_N(U_Di) ⊇ Can_N(U_Pi)` (pure, driver). */
  def typeIIIGate(canPi: Set[Long], affDi: Set[Long]): Boolean =
    canPi.subsetOf(affDi)

  /** DER-III cancellation body: the updated SLen satisfies the inserted
    * bound for every match pair of the edge's endpoints. Independent of
    * which data update provides the coverage, so check it once per `U_Pi`.
    */
  def cancelsUnderNewSlen(spark: SparkSession, uPi: PatEdgeIns, ctx: Context,
                          slenNew: DataFrame, cap: Int): Boolean = {
    val PEdge(s, t, bound) = uPi.edge
    violations(slenNew, ctx.matchSet(s), ctx.matchSet(t), bound, cap)._1 == 0
  }
}
