package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint regenerating Tables XI and XII.
  *
  * Usage: `spark-submit --class repro.jobs.TableXIJob <jar> [reps] [verify]`
  */
object TableXIJob {
  def main(args: Array[String]): Unit = {
    val reps   = args.headOption.map(_.toInt).getOrElse(3)
    val verify = args.lift(1).forall(_.toBoolean)
    val spark  = Sessions.local("ua-gpnm-table-xi")
    try {
      val (_, report) = Tables.tableXI(spark, reps, verify)
      println(report)
      Tables.saveReport("table_xi_xii.md", report)
    } finally spark.stop()
  }
}

/** Shared local session factory for the jobs and the test suites:
  * broadcast joins off, so every join takes the shuffle path.
  */
object Sessions {
  def local(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
}
