package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The four evaluated GPNM methods (§VII "Comparison Methods") plus the
  * from-scratch baseline used as the correctness reference.
  *
  * All methods return the same SQuery (asserted in tests) and run the same
  * driver: apply `ΔG_D` one SLen step per update
  * ([[Engine.applyDataUpdate]]), then run one BGS pass per chosen update,
  * every pass against the final (graph, pattern, SLen). They differ only in
  * which updates get a pass, which is the work the paper measures:
  *
  *  - INC-GPNM [13]: every update in `ΔG_D` and `ΔG_P`.
  *  - EH-GPNM [14]: the EH-Tree roots over `ΔG_D` (Type II eliminations),
  *    plus every pattern update.
  *  - UA-GPNM-NoPar: the EH-Tree roots over all updates (Types I, II, III).
  *  - UA-GPNM: the paper adds §V's label-partition scoping of SLen to
  *    NoPar. It pruned nothing on any bench graph (one combined component
  *    each, DESIGN.md §3.3) and is not implemented, so UA-GPNM and
  *    UA-GPNM-NoPar run the same code.
  *
  * EH-GPNM and UA-GPNM read each data update's `Aff_N` from the pairs its
  * SLen step changed ([[Der.affectedNodes]]), never from a diff of two
  * whole SLen states; INC-GPNM builds none.
  *
  * An "incremental GPNM pass" is a BGS fixpoint over the maintained SLen
  * (DESIGN.md §3.2), so every pass is exact, and the last one's result is
  * SQuery.
  */
object GpnmMethods {

  /** Work counters exposed for tests and bench logging. */
  final case class RunStats(fixpointPasses: Int, eliminated: Int, treeDepth: Int)

  /** Result of a subsequent-query run. */
  final case class RunResult(squery: DataFrame, stats: RunStats)

  /** From-scratch GPNM: full SLen + full fixpoint. Returns (SLen, IQuery). */
  def scratch(spark: SparkSession, g: DataGraph, p: PatternGraph,
              cap: Int): (DataFrame, DataFrame) = {
    val slen = SlenOps(cap).fullApsp(spark, g)
    (slen, Bgs.run(spark, g, p, slen, cap))
  }

  /** INC-GPNM [13]: no eliminations; every update gets a pass, and no
    * `Aff_N` is built.
    */
  def incGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
              iquery: DataFrame, slen: DataFrame,
              dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int): RunResult =
    subsequent(spark, g, p, iquery, slen, dUps, pUps, cap, readsAff = false) { _ =>
      (dUps ++ pUps, EhTree.build(Nil))
    }

  /** EH-GPNM [14]: Type II eliminations only. The roots of the EH-Tree over
    * `ΔG_D` get a pass, and so does every pattern update.
    */
  def ehGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
             iquery: DataFrame, slen: DataFrame,
             dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int): RunResult =
    subsequent(spark, g, p, iquery, slen, dUps, pUps, cap, readsAff = true) { st =>
      val tree = EhTree.build(st.affSets)
      (tree.uneliminated ++ pUps, tree)
    }

  /** UA-GPNM (Algorithm 6): Types I–III. The roots of the EH-Tree over all
    * updates get a pass.
    *
    * @param partitioned ignored: UA-GPNM and UA-GPNM-NoPar run the same
    *                    code (see [[SlenOps]]). It stays only because
    *                    `perfbench/` still passes it; it goes with that
    *                    benchmark's change in ROADMAP item 1.
    */
  def uaGpnm(spark: SparkSession, g: DataGraph, p: PatternGraph,
             iquery: DataFrame, slen: DataFrame,
             dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int,
             partitioned: Boolean = false): RunResult =
    subsequent(spark, g, p, iquery, slen, dUps, pUps, cap, readsAff = true) { st =>
      val ctx = Der.context(g, iquery)
      // DER-I candidate sets against the original SLen and IQuery (Alg 1),
      // each on the pattern as it stands just before its update.
      val canSets = pUps.zip(st.patterns).map { case (u, pat) =>
        u -> Der.candidateNodes(spark, u, pat, ctx, slen, cap)
      }
      // DER-III: pattern-edge insertions cancelled by a covering data update.
      // The coverage gate is a driver set check; the SLen cancellation body
      // is independent of the covering update, so it runs once per U_Pi.
      val cross = canSets
        .collect { case (pu: PatEdgeIns, can) => (pu, can) }
        .flatMap { case (pu, can) =>
          st.affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.collect {
            case (du, _) if Der.cancelsUnderNewSlen(spark, pu, ctx, st.slen, cap) =>
              (pu.uid, du.uid)
          }
        }
      val tree = EhTree.build(st.affSets ++ canSets, cross.distinct)
      (tree.uneliminated, tree)
    }

  /** What a method reads to choose its passes once `ΔG_D` is applied: the
    * final SLen, the pattern before each of `ΔG_P`'s updates and after the
    * last, and each data update's `Aff_N` (none unless the method reads it).
    */
  private final case class Updated(slen: DataFrame, patterns: Seq[PatternGraph],
                                   affSets: Seq[(DataUpdate, Set[Long])])

  /** The one subsequent-query driver. It checks every bound of the pattern
    * and of each pattern it passes through against `cap`
    * ([[PatternGraph.maxBound]]), so a bound above the cap fails the batch
    * before any Spark job. It then applies `ΔG_D` one SLen step per update
    * ([[Engine.applyDataUpdate]]), lets the method choose the updates that
    * get a pass and the EH-Tree that chose them, and runs one BGS pass per
    * chosen update against the final (graph, pattern, SLen). With no
    * chosen update, IQuery is the answer.
    */
  private def subsequent(spark: SparkSession, g: DataGraph, p: PatternGraph,
                         iquery: DataFrame, slen: DataFrame,
                         dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate], cap: Int,
                         readsAff: Boolean)
                        (choose: Updated => (Seq[Update], EhTree)): RunResult = {
    val patterns = pUps.scanLeft(p)(Updates.applyPattern)
    patterns.foreach(_.maxBound(cap))
    val ops  = SlenOps(cap)
    var curG = g
    var curS = slen
    val affSets = dUps.flatMap { u =>
      val (g2, step) = Engine.applyDataUpdate(spark, curG, curS, u, ops)
      curG = g2; curS = step.slen
      if (readsAff) Some(u -> Der.affectedNodes(step.changed)) else None
    }
    val (passes, tree) = choose(Updated(curS, patterns, affSets))
    val squery = passes.foldLeft(iquery)((_, _) => Bgs.run(spark, curG, patterns.last, curS, cap))
    RunResult(squery, RunStats(passes.size, tree.eliminated.size, tree.depth))
  }
}
