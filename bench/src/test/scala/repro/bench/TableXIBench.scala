package repro.bench

import org.scalatest.Checkpoints
import repro.SparkSpec

/** Regenerates Tables XI and XII: average SQuery delivery time per dataset
  * for the four methods, plus UA-GPNM's derived reductions. Asserts the
  * paper's *shape*: UA-GPNM < EH-GPNM < INC-GPNM on every dataset, and the
  * partition strategy does not lose to NoPar on average.
  *
  * `BENCH_REPS` (default 2) controls averaging; rep 0 of each dataset also
  * verifies the four methods against a from-scratch GPNM. Every gate is
  * checked; the test fails at the end, listing each gate that failed.
  */
class TableXIBench extends SparkSpec with Checkpoints {

  test("Table XI / XII — per-dataset timings and reductions") {
    val reps = sys.env.get("BENCH_REPS").map(_.toInt).getOrElse(2)
    val (rows, report) = Tables.tableXI(spark, reps, verify = true)
    println(report)
    Tables.saveReport("table_xi_xii.md", report)

    val gates = new Checkpoint
    rows.foreach { case (name, t) =>
      gates { assert(t.ua < t.inc, s"$name: UA-GPNM (${t.ua}) should beat INC-GPNM (${t.inc})") }
      gates { assert(t.eh < t.inc * 1.05, s"$name: EH-GPNM (${t.eh}) should not lose to INC-GPNM (${t.inc})") }
    }
    val avg = rows.map(_._2).reduce(_ + _) / rows.size
    gates { assert(avg.ua < avg.eh, s"avg UA-GPNM (${avg.ua}) should beat avg EH-GPNM (${avg.eh})") }
    gates {
      assert(avg.ua <= avg.noPar * 1.10,
        s"avg UA-GPNM (${avg.ua}) should not lose to NoPar (${avg.noPar}) beyond noise")
    }
    gates { assert(avg.noPar < avg.inc) }
    gates.reportAll()
  }
}
