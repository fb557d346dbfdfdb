package repro.perfbench

import scala.collection.mutable

/** One closed span: wall time, the part not covered by child spans, and the
  * Spark jobs launched inside it (with and without its children's).
  */
final case class SpanStat(name: String, topLevel: Boolean, seconds: Double, selfSeconds: Double,
                          jobs: Long, selfJobs: Long)

/** In-memory spans around calls into the program's layers, for one traced
  * method replay. Each span tags the jobs it launches, so job counts come
  * from the [[JobCounter]] after the replay, outside the timed calls.
  * Spans nest: a span's self time excludes its children's time.
  */
final class Tracer(counter: JobCounter, id: String) {
  import Tracer._

  private val closed  = mutable.Buffer.empty[Closed]
  private var stack   = List.empty[Open]
  private var nextNum = 0
  private val values  = mutable.Buffer.empty[(String, Double)]

  private def tag(num: Int) = s"$id.$num"

  def span[A](name: String)(body: => A): A = {
    val o = Open(nextNum, stack.headOption.fold(-1)(_.num), name, System.nanoTime(), 0L)
    nextNum += 1
    stack = o :: stack
    try counter.tagged(tag(o.num))(body)
    finally {
      val ns = System.nanoTime() - o.t0
      stack = stack.tail
      stack.headOption.foreach(_.childNs += ns)
      closed += Closed(o.num, o.parent, name, ns, ns - o.childNs)
    }
  }

  /** Work done only to measure a counter; its time and jobs are charged to
    * no layer (a child span named `probe`).
    */
  def probe(body: => Unit): Unit = span("probe")(body)

  /** Record one observation of a named counter. */
  def count(name: String, v: Double): Unit = values += (name -> v)

  def observations: Seq[(String, Double)] = values.toSeq

  /** Close out: per-span stats with job counts attributed through the tags. */
  def stats(): Seq[SpanStat] = {
    require(stack.isEmpty, "stats() called inside an open span")
    val (jobs, _) = counter.counts()
    val selfJobs  = closed.map(c => c.num -> jobs(tag(c.num))).toMap
    val children  = closed.groupBy(_.parent)
    def total(num: Int): Long =
      selfJobs(num) + children.getOrElse(num, Nil).map(c => total(c.num)).sum
    closed.toSeq.sortBy(_.num).map { c =>
      SpanStat(c.name, c.parent < 0, c.ns / 1e9, c.selfNs / 1e9, total(c.num), selfJobs(c.num))
    }
  }
}

private object Tracer {
  final case class Open(num: Int, parent: Int, name: String, t0: Long, var childNs: Long)
  final case class Closed(num: Int, parent: Int, name: String, ns: Long, selfNs: Long)
}
