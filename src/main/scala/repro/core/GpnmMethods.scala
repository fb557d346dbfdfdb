package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable

/** The four evaluated GPNM methods (§VII "Comparison Methods") plus the
  * from-scratch baseline used as the correctness reference.
  *
  * All methods return the same SQuery (asserted in tests); they differ in
  * *how much work* they spend, which is what the paper measures:
  *
  *  - INC-GPNM [13]: one incremental GPNM pass per update, in `ΔG_D` and
  *    `ΔG_P` alike.
  *  - EH-GPNM [14]: EH-Tree over `ΔG_D` only (Type II eliminations); one
  *    pass per uneliminated data update, plus one per pattern update.
  *  - UA-GPNM-NoPar: EH-Tree over all updates (Types I, II, III); one pass
  *    per uneliminated root.
  *  - UA-GPNM: same, with SLen computation scoped to the combined label
  *    partitions (§V). All four methods share one BFS kernel ([[SlenOps]]).
  *
  * Every method applies `ΔG_D` one SLen step per update
  * ([[Engine.applyDataUpdate]]): the step returns the new SLen with the
  * pairs whose distance the update changed, and each update's `Aff_N` is
  * read from those pairs ([[Der.affectedNodes]]), never from a diff of two
  * whole SLen states.
  *
  * An "incremental GPNM pass" is a BGS fixpoint over the maintained SLen
  * (DESIGN.md §3.2), so every method's final pass runs against the final
  * (graph, pattern, SLen) and is therefore exact.
  */
object GpnmMethods {

  /** Work counters exposed for tests and bench logging. */
  final case class RunStats(fixpointPasses: Int, eliminated: Int, treeDepth: Int)

  /** Result of a subsequent-query run. */
  final case class RunResult(squery: DataFrame, stats: RunStats)

  /** From-scratch GPNM: full SLen + full fixpoint. Returns (SLen, IQuery). */
  def scratch(spark: SparkSession, g: DataGraph, p: PatternGraph,
              cap: Int, partitioned: Boolean = true): (DataFrame, DataFrame) = {
    val ops  = SlenOps(cap, partitioned)
    val slen = ops.fullApsp(spark, g)
    (slen, Bgs.run(spark, g, p, slen, cap))
  }

  /** INC-GPNM: per-update incremental procedure for every update. */
  def incGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
              iquery: DataFrame, slen: DataFrame,
              dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int): RunResult = {
    val ops     = SlenOps(cap, partitioned = false)
    var curG    = g
    var curS    = slen
    var matches = iquery
    var passes  = 0
    dUps.foreach { u =>
      val (g2, step) = Engine.applyDataUpdate(spark, curG, curS, u, ops)
      // INC-GPNM identifies each update's affected area (its Aff_N, read
      // from the SLen step) before the update's own pass.
      Der.affectedNodes(step.changed)
      curG = g2; curS = step.slen
      matches = Bgs.run(spark, curG, p, curS, cap); passes += 1
    }
    var pat = p
    pUps.foreach { u =>
      pat = Updates.applyPattern(pat, u)
      matches = Bgs.run(spark, curG, pat, curS, cap); passes += 1
    }
    RunResult(matches, RunStats(passes, 0, 0))
  }

  /** EH-GPNM: Type II eliminations over `ΔG_D`; `ΔG_P` handled per update. */
  def ehGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
             iquery: DataFrame, slen: DataFrame,
             dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int): RunResult = {
    val ops  = SlenOps(cap, partitioned = false)
    val (curG, curS, affSets) = advanceData(spark, g, slen, dUps, ops)
    val tree = EhTree.build(affSets.map { case (u, s) => (u: Update, s) })
    var matches = iquery
    var passes  = 0
    tree.uneliminated.foreach { _ =>
      matches = Bgs.run(spark, curG, p, curS, cap); passes += 1
    }
    var pat = p
    pUps.foreach { u =>
      pat = Updates.applyPattern(pat, u)
      matches = Bgs.run(spark, curG, pat, curS, cap); passes += 1
    }
    RunResult(matches, RunStats(passes, tree.eliminated.size, tree.depth))
  }

  /** UA-GPNM (Algorithm 6): EH-Tree over all updates with Types I–III;
    * one incremental pass per uneliminated root. `partitioned` scopes SLen
    * computation to label partitions (§V; true = UA-GPNM,
    * false = UA-GPNM-NoPar).
    */
  def uaGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
             iquery: DataFrame, slen: DataFrame,
             dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int,
             partitioned: Boolean): RunResult = {
    val ops = SlenOps(cap, partitioned)
    val (curG, curS, affSets) = advanceData(spark, g, slen, dUps, ops)
    val ctx = Der.context(g, iquery)
    // DER-I candidate sets against the original SLen and IQuery (Alg 1).
    val canSets = pUps.map(u => u -> Der.candidateNodes(spark, u, p, ctx, slen, cap))
    // DER-III: pattern-edge insertions cancelled by a covering data update.
    // The coverage gate is a driver set check; the SLen cancellation body
    // is independent of the covering update, so it runs once per U_Pi.
    val cross = canSets
      .collect { case (pu: PatEdgeIns, can) => (pu, can) }
      .flatMap { case (pu, can) =>
        affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.collect {
          case (du, _) if Der.cancelsUnderNewSlen(spark, pu, ctx, curS, cap) =>
            (pu.uid, du.uid)
        }
      }
    val entries = affSets.map { case (u, s) => (u: Update, s) } ++
                  canSets.map { case (u, s) => (u: Update, s) }
    val tree   = EhTree.build(entries, cross.distinct)
    val patNew = Updates.applyPatternAll(p, pUps)
    var matches = iquery
    var passes  = 0
    tree.uneliminated.foreach { _ =>
      matches = Bgs.run(spark, curG, patNew, curS, cap); passes += 1
    }
    RunResult(matches, RunStats(passes, tree.eliminated.size, tree.depth))
  }

  /** Apply `ΔG_D` in sequence, maintaining SLen and collecting each
    * update's `Aff_N` from its SLen step (DER-II Steps 1–2).
    */
  private def advanceData(spark: SparkSession, g: DataGraph, slen: DataFrame,
                          dUps: Seq[DataUpdate], ops: SlenOps)
      : (DataGraph, DataFrame, Seq[(DataUpdate, Set[Long])]) = {
    var curG = g
    var curS = slen
    val affSets = mutable.Buffer.empty[(DataUpdate, Set[Long])]
    dUps.foreach { u =>
      val (g2, step) = Engine.applyDataUpdate(spark, curG, curS, u, ops)
      affSets += (u -> Der.affectedNodes(step.changed))
      curG = g2; curS = step.slen
    }
    (curG, curS, affSets.toSeq)
  }
}
