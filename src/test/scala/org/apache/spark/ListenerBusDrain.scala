package org.apache.spark

/** Blocks until every queued listener event has been delivered, so a
  * listener's counts are complete when read. The listener bus is private to
  * Spark, hence this accessor in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
