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
  *
  * Bounds read SLen up to [[PEdge.horizon]], which rejects a finite bound
  * above the cap. `*` reads up to the cap even where SLen may be
  * truncated: a truncated distance only adds violations, so `Can_N` grows
  * and DER-III cancels less often, and DER stays conservative. The BGS pass
  * itself rejects `*` over a truncated SLen ([[Bgs.matchFixpoint]]).
  */
object Der {

  /** Driver-side snapshot of the inputs DER reads repeatedly: label → node
    * ids and pattern node → IQuery matches. Built with one collect so a
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
    // Rows (kind, key, id): kind 0 is a node id under its label, kind 1 an
    // IQuery match of pattern node key. One union, so one Spark job.
    val rows = g.nodes.select(lit(0).as("kind"), col("label").as("key"), col("id"))
      .union(iquery.select(lit(1).as("kind"), col("pu").as("key"), col("v").as("id")))
      .collect().map(r => (r.getInt(0), r.getString(1), r.getLong(2)))
    def sets(kind: Int): Map[String, Set[Long]] =
      rows.filter(_._1 == kind).groupBy(_._2).view.mapValues(_.map(_._3).toSet).toMap
    Context(sets(0), sets(1))
  }

  /** Pairs `(v, v')` of `left × right` whose SLen entry fails `1..horizon`
    * (missing ⇒ ∞ ⇒ violation). One SLen filter collects the witnessed
    * pairs; the rest of `left × right` is taken on the driver, where both
    * sets already are. Returns the violating pair count and the endpoints
    * involved.
    */
  private def violations(slen: DataFrame, left: Set[Long], right: Set[Long],
                         horizon: Int): (Long, Set[Long]) = {
    if (left.isEmpty || right.isEmpty) return (0L, Set.empty)
    val witnessed = slen
      .filter(col("src").isin(left.toSeq: _*) && col("dst").isin(right.toSeq: _*) &&
              col("d").between(1, horizon))
      .select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val viol = for (v <- left; w <- right if !witnessed((v, w))) yield (v, w)
    (viol.size.toLong, viol.flatMap { case (v, w) => Set(v, w) })
  }

  /** `Can_N(U_Pi)` per Algorithm 1, extended to the four pattern-update
    * kinds (DESIGN.md: the sets are an *index* for elimination ordering;
    * correctness is carried by the final fixpoint). A bound above `cap`,
    * in `p` or in `u`, is rejected even where the set reads none. Like
    * [[cancelsUnderNewSlen]], it keeps `spark`, unread, for `perfbench/`.
    */
  def candidateNodes(spark: SparkSession, u: PatternUpdate, p: PatternGraph,
                     ctx: Context, slen: DataFrame, cap: Int): Set[Long] = {
    p.maxBound(cap)
    u match {
      case PatEdgeIns(e @ PEdge(s, t, _)) =>
        // Can_RN: match pairs of (s, t) violating the new bound may be removed.
        violations(slen, ctx.matchSet(s), ctx.matchSet(t), e.horizon(cap))._2
      case PatEdgeDel(s, t) =>
        // Can_AN: label candidates currently excluded may become matches.
        (ctx.labelSet(p.node(s).label) -- ctx.matchSet(s)) ++
          (ctx.labelSet(p.node(t).label) -- ctx.matchSet(t))
      case PatNodeIns(n, attach) =>
        // Every node with the new label may enter the result.
        attach.horizon(cap)
        ctx.labelSet(n.label)
      case PatNodeDel(id) =>
        // The node's matches leave the result; the neighbours' excluded
        // label candidates may enter once the constraint disappears.
        ctx.matchSet(id) ++ p.neighbours(id).flatMap { w =>
          ctx.labelSet(p.node(w).label) -- ctx.matchSet(w)
        }
    }
  }

  /** `Aff_N(U_Di)`: the endpoints of a changed-pair set, such as the one
    * an SLen step returns (`IncApsp.Step.changed`). Each partition sends
    * its distinct endpoints (at most |V_D|), so one job collects the set;
    * for a step's pairs that job scans the step's checkpoint, with no
    * exchange.
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
    val e = uPi.edge
    violations(slenNew, ctx.matchSet(e.src), ctx.matchSet(e.dst), e.horizon(cap))._1 == 0
  }
}
