package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.IncApsp

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
  * coverage rule ([[EhTree.build]]). Each read is one plain RDD job; the
  * DataFrame forms only convert their inputs.
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

  /** Build the [[Context]] from a data graph's node rows and its IQuery
    * `(pu, v)`.
    */
  def context(nodes: RDD[(Long, String)], iquery: RDD[(String, Long)]): Context = {
    // Rows (kind, key, id): kind 0 is a node id under its label, kind 1 an
    // IQuery match of pattern node key. One union, so one Spark job.
    val rows = (nodes.map { case (id, label) => (0, label, id) } ++
                iquery.map { case (pu, v) => (1, pu, v) }).collect()
    def sets(kind: Int): Map[String, Set[Long]] =
      rows.filter(_._1 == kind).groupBy(_._2).view.mapValues(_.map(_._3).toSet).toMap
    Context(sets(0), sets(1))
  }

  /** [[context]] for a (data graph, IQuery) pair of DataFrames. */
  def context(g: DataGraph, iquery: DataFrame): Context =
    context(Rows.nodes(g), Rows.matches(iquery))

  /** Pairs `(v, v')` of `left × right` whose SLen entry fails `1..horizon`
    * (missing ⇒ ∞ ⇒ violation). One SLen filter collects the witnessed
    * pairs; the rest of `left × right` is taken on the driver, where both
    * sets already are. Returns the violating pair count and the endpoints
    * involved.
    */
  private def violations(slen: RDD[(Long, Long, Int)], left: Set[Long], right: Set[Long],
                         horizon: Int): (Long, Set[Long]) = {
    if (left.isEmpty || right.isEmpty) return (0L, Set.empty)
    val witnessed = slen
      .collect { case (v, w, d) if left(v) && right(w) && d >= 1 && d <= horizon => (v, w) }
      .collect().toSet
    val viol = for (v <- left; w <- right if !witnessed((v, w))) yield (v, w)
    (viol.size.toLong, viol.flatMap { case (v, w) => Set(v, w) })
  }

  /** `Can_N(U_Pi)` per Algorithm 1, extended to the four pattern-update
    * kinds (DESIGN.md: the sets are an *index* for elimination ordering;
    * correctness is carried by the final fixpoint). A bound above `cap`,
    * in `p` or in `u`, is rejected even where the set reads none.
    */
  def candidateNodes(u: PatternUpdate, p: PatternGraph, ctx: Context,
                     slen: RDD[(Long, Long, Int)], cap: Int): Set[Long] = {
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

  /** [[candidateNodes]] over a DataFrame SLen. Like the DataFrame
    * [[cancelsUnderNewSlen]], it keeps `spark`, unread, for `perfbench/`.
    */
  def candidateNodes(spark: SparkSession, u: PatternUpdate, p: PatternGraph,
                     ctx: Context, slen: DataFrame, cap: Int): Set[Long] =
    candidateNodes(u, p, ctx, Rows.slen(slen), cap)

  /** `Aff_N(U_Di)`: the endpoints of a changed-pair set, such as the one
    * an SLen step returns (`IncApsp.Step.changed`). Each partition sends
    * its distinct endpoints (at most |V_D|), so one job collects the set;
    * for a step's pairs that job scans the step's checkpoint, with no
    * shuffle.
    */
  def affectedNodes(changed: RDD[IncApsp.Changed]): Set[Long] =
    changed.mapPartitions(ps => ps.flatMap { case (s, d, _, _) => Iterator(s, d) }.toSet.iterator)
      .collect().toSet

  /** [[affectedNodes]] of a DataFrame of changed pairs `(src, dst, ...)`. */
  def affectedNodes(changed: DataFrame): Set[Long] =
    affectedNodes(Rows.pairs(changed).map[IncApsp.Changed] { case (s, d) => (s, d, None, None) })

  /** DER-III coverage gate: `Aff_N(U_Di) ⊇ Can_N(U_Pi)` (pure, driver). */
  def typeIIIGate(canPi: Set[Long], affDi: Set[Long]): Boolean =
    canPi.subsetOf(affDi)

  /** DER-III cancellation body: the updated SLen satisfies the inserted
    * bound for every match pair of the edge's endpoints. Independent of
    * which data update provides the coverage, so check it once per `U_Pi`.
    */
  def cancelsUnderNewSlen(uPi: PatEdgeIns, ctx: Context, slenNew: RDD[(Long, Long, Int)],
                          cap: Int): Boolean = {
    val e = uPi.edge
    violations(slenNew, ctx.matchSet(e.src), ctx.matchSet(e.dst), e.horizon(cap))._1 == 0
  }

  /** [[cancelsUnderNewSlen]] over a DataFrame SLen. */
  def cancelsUnderNewSlen(spark: SparkSession, uPi: PatEdgeIns, ctx: Context,
                          slenNew: DataFrame, cap: Int): Boolean =
    cancelsUnderNewSlen(uPi, ctx, Rows.slen(slenNew), cap)
}
