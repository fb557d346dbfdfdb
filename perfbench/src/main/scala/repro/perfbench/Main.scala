package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Entry point of the SQuery-latency benchmark; see perfbench/README.md.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   --master <m> --shuffle-partitions <n> --broadcast-threshold <bytes>`
  *
  * Prints progress lines starting with `#`, one `fingerprint` line and, last,
  * the result as one JSON object. Exits non-zero when a result is wrong.
  */
object Main {

  private val keys = Set("workload", "seed", "seconds", "trace", "master",
                         "shuffle-partitions", "broadcast-threshold")

  def main(args: Array[String]): Unit = {
    val start = System.nanoTime()
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    val opts = args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--") && keys(k.drop(2)), s"unknown option $k")
      k.drop(2) -> v
    }.toMap
    val missing = keys -- opts.keySet
    require(missing.isEmpty, s"missing options: ${missing.mkString(", ")}")

    val w = Workloads.named(opts("workload"))
    val spark = SparkSession.builder()
      .master(opts("master"))
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", opts("shuffle-partitions"))
      .config("spark.sql.autoBroadcastJoinThreshold", opts("broadcast-threshold"))
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    val outcome =
      try {
        val bench = new Bench(spark, JobCounter.install(spark), w, opts("seed").toLong,
                              opts("seconds").toInt, start)
        if (opts("trace") == "1") bench.traced() else bench.timed()
      } finally spark.stop()
    println(outcome.json)
    if (!outcome.correct) sys.exit(1)
  }
}
