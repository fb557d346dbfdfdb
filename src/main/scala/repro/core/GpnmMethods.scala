package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.ApspBfs

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
  *
  * DataFrames are the methods' inputs and output only. The driver reads
  * the caller's graph, SLen and IQuery as RDDs once, with no Spark job,
  * runs every SLen step, DER read and pass as a plain RDD job, and wraps
  * SQuery as a DataFrame once on exit, so no Catalyst plan is built in
  * between (DESIGN.md §2).
  */
object GpnmMethods {

  /** Work counters exposed for tests and bench logging. */
  final case class RunStats(fixpointPasses: Int, eliminated: Int, treeDepth: Int)

  /** Result of a subsequent-query run. */
  final case class RunResult(squery: DataFrame, stats: RunStats)

  /** From-scratch GPNM: full SLen + full fixpoint. Returns (SLen, IQuery). */
  def scratch(spark: SparkSession, g: DataGraph, p: PatternGraph,
              cap: Int): (DataFrame, DataFrame) = {
    val rows = Rows.graph(g)
    val slen = ApspBfs.apsp(rows, cap)
    (Rows.slenFrame(spark, slen), Rows.matchFrame(spark, Bgs.run(rows.nodes, p, slen, cap)))
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
      val ctx = Der.context(st.g.nodes, Rows.matches(iquery))
      // DER-I candidate sets against the original SLen and IQuery (Alg 1),
      // each on the pattern as it stands just before its update.
      val canSets = pUps.zip(st.patterns).map { case (u, pat) =>
        u -> Der.candidateNodes(u, pat, ctx, st.slen, cap)
      }
      // DER-III: pattern-edge insertions cancelled by a covering data update.
      // The coverage gate is a driver set check; the SLen cancellation body
      // is independent of the covering update, so it runs once per U_Pi.
      val cross = canSets
        .collect { case (pu: PatEdgeIns, can) => (pu, can) }
        .flatMap { case (pu, can) =>
          st.affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.collect {
            case (du, _) if Der.cancelsUnderNewSlen(pu, ctx, st.finalSlen, cap) =>
              (pu.uid, du.uid)
          }
        }
      val tree = EhTree.build(st.affSets ++ canSets, cross.distinct)
      (tree.uneliminated, tree)
    }

  /** What a method reads to choose its passes once `ΔG_D` is applied: the
    * original graph's rows and SLen, the final SLen, the pattern before
    * each of `ΔG_P`'s updates and after the last, and each data update's
    * `Aff_N` (none unless the method reads it).
    */
  private final case class Updated(g: GraphRows, slen: RDD[(Long, Long, Int)],
                                   finalSlen: RDD[(Long, Long, Int)], patterns: Seq[PatternGraph],
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
    val (g0, s0) = (Rows.graph(g), Rows.slen(slen))
    var curG = g0
    var curS = s0
    val affSets = dUps.flatMap { u =>
      val (g2, step) = Engine.applyDataUpdate(curG, curS, u, cap)
      curG = g2; curS = step.slen
      if (readsAff) Some(u -> Der.affectedNodes(step.changed)) else None
    }
    val (passes, tree) = choose(Updated(g0, s0, curS, patterns, affSets))
    val result = passes.foldLeft(Option.empty[RDD[(String, Long)]]) { (_, _) =>
      Some(Bgs.run(curG.nodes, patterns.last, curS, cap))
    }
    RunResult(result.fold(iquery)(Rows.matchFrame(spark, _)),
              RunStats(passes.size, tree.eliminated.size, tree.depth))
  }
}
