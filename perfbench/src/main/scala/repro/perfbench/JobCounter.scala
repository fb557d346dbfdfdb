package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import scala.collection.mutable

/** Counts Spark jobs and tasks per tag. A job's tag is the value of the
  * local property [[JobCounter.TagKey]] on the thread that submitted it;
  * its tasks inherit the tag through their stages.
  */
final class JobCounter private (spark: SparkSession) extends SparkListener {
  private val jobs     = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val tasks    = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val stageTag = mutable.Map.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(JobCounter.TagKey))).getOrElse("")
    jobs(tag) += 1
    e.stageIds.foreach(id => stageTag.getOrElseUpdate(id, tag))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks(stageTag.getOrElse(e.stageId, "")) += 1
  }

  /** Run `body` with its jobs tagged `tag`, restoring the outer tag after. */
  def tagged[A](tag: String)(body: => A): A = {
    val sc   = spark.sparkContext
    val prev = sc.getLocalProperty(JobCounter.TagKey)
    sc.setLocalProperty(JobCounter.TagKey, tag)
    try body finally sc.setLocalProperty(JobCounter.TagKey, prev)
  }

  /** Jobs and tasks seen so far per tag, after delivering queued events. */
  def counts(): (Map[String, Long], Map[String, Long]) = {
    ListenerBusDrain(spark.sparkContext)
    synchronized((jobs.toMap.withDefaultValue(0L), tasks.toMap.withDefaultValue(0L)))
  }
}

object JobCounter {
  val TagKey = "perfbench.tag"

  def install(spark: SparkSession): JobCounter = {
    val c = new JobCounter(spark)
    spark.sparkContext.addSparkListener(c)
    c
  }
}
