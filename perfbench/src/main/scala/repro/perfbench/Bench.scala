package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.gen.{GraphSnapshot, UpdateGen}
import repro.partition.LabelPartition

import scala.collection.mutable
import scala.util.control.NonFatal

/** A metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

/** What one run prints last. */
final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Metric)]) {
  def json: String = {
    val ms = metrics.map { case (n, m) =>
      s"""${Json.str(n)}:{"value":${Json.num(m.value)},"unit":${Json.str(m.unit)}}"""
    }
    s"""{"correct":$correct,"attempted":$attempted,"failed":$failed,"metrics":{${ms.mkString(",")}}}"""
  }
}

/** One benchmark run of a workload: set-ups, an untimed warm-up scenario,
  * then scenarios in which each of the four methods runs once, in an order
  * rotated by scenario, with persisted RDDs dropped between methods.
  *
  * Untimed runs (`timed`) time SQuery delivery per method for at least
  * `seconds`. Traced runs (`traced`) time each method once untraced while
  * counting its Spark jobs, then replay it with spans around every layer
  * call.
  */
final class Bench(spark: SparkSession, counter: JobCounter, w: Workload, seed: Long,
                  seconds: Int, startNs: Long) {

  /** Set-ups per run; `setup_s` is their median. The first runs cold. */
  val SetupRepeats = 2

  /** Scenarios per traced run: a fixed count, so work counters repeat. */
  val TraceScenarios = 1

  /** A run starts no scenario it could not finish by this many seconds. */
  val Deadline = 150.0

  private val scenarios = new Scenarios(w, seed)
  private var attempted = 0
  private var failed    = 0

  private def note(s: String): Unit = println(s"# $s")
  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def release(base: Base, keep: Set[Int]): Unit = {
    base.slen.unpersist(blocking = true)
    Harness.cleanupExcept(spark, keep)
  }

  private def rotate[A](xs: Seq[A], k: Int): Seq[A] = {
    val r = Math.floorMod(k, xs.size)
    xs.drop(r) ++ xs.take(r)
  }

  private def check(m: Method, in: Inputs, got: Map[String, Set[Long]],
                    expect: Map[String, Set[Long]]): Boolean = {
    val ok = got == expect
    if (!ok) note(s"MISMATCH ${m.key} scenario ${in.index}: got $got, expected $expect")
    ok
  }

  /** `SetupRepeats` set-ups, of which the last is kept. The first runs
    * cold and is followed by the untimed warm-up scenario, run by UA-NoPar:
    * it calls every layer the other methods call except the partitioned
    * SLen engine, which every set-up runs. Returns the kept inputs, their
    * driver-side snapshot, the set-up times and the persisted RDDs the
    * scenarios must keep.
    */
  private def prepare(): (Base, GraphSnapshot, Seq[SetupTimes], Set[Int]) = {
    val keep0  = Harness.persistedIds(spark)
    val shapes = mutable.Set.empty[(Long, Long, Long, String)]
    val setups = (1 to SetupRepeats).map { k =>
      val (b, t) = Setup.prepare(spark)
      note(f"set-up $k done at ${since(startNs)}%.1f s")
      shapes += ((b.nodes, b.edges, b.slenRows, Fingerprint.pattern(b.pattern)))
      if (k == 1) {
        Method.NoPar.run(spark, scenarios.inputs(b, UpdateGen.snapshot(b.graph), -1)).squery.count()
        note(f"warm-up done at ${since(startNs)}%.1f s")
      }
      if (k < SetupRepeats) release(b, keep0)
      (b, t)
    }
    require(shapes.size == 1, s"set-up is not deterministic within a session: $shapes")
    note(f"set-ups done at ${since(startNs)}%.1f s: ${setups.map(s => f"${s._2.total}%.2f").mkString(" ")} s")
    val base = setups.last._1
    (base, UpdateGen.snapshot(base.graph), setups.map(_._2), Harness.persistedIds(spark))
  }

  /** Untraced run: SQuery delivery time per method. */
  def timed(): Outcome = {
    val (base, snap, setups, keep) = prepare()
    val times  = mutable.Map.empty[Method, mutable.Buffer[Double]]
    val inputs = mutable.Buffer.empty[Inputs]
    val t0 = System.nanoTime()
    var last = 0.0
    while (inputs.isEmpty || (since(t0) < seconds && since(startNs) + last < Deadline)) {
      val ts = System.nanoTime()
      val in = scenarios.inputs(base, snap, inputs.size)
      inputs += in
      val expect = Reference.squery(snap, in)
      rotate(Method.all, in.index).foreach { m =>
        Harness.cleanupExcept(spark, keep)
        attempted += 1
        try {
          val t = System.nanoTime()
          val r = m.run(spark, in)
          r.squery.count()
          val dt = since(t)
          note(f"${m.key} scenario ${in.index}: $dt%.3f s, ${r.stats}")
          if (check(m, in, Reference.of(r.squery), expect)) times.getOrElseUpdate(m, mutable.Buffer.empty) += dt
          else failed += 1
        } catch { case NonFatal(e) => failed += 1; note(s"FAILED ${m.key} scenario ${in.index}: $e") }
      }
      Harness.cleanupExcept(spark, keep)
      last = since(ts)
      note(f"scenario ${in.index} done at ${since(startNs)}%.1f s")
    }
    println("fingerprint " + Fingerprint.json(w, seed, base, inputs.toSeq))
    val med = Method.all.map(m => m -> Stats.median(times.getOrElse(m, Nil).toSeq)).toMap
    note(s"scenarios ${inputs.size}, method runs $attempted, failed $failed " +
         s"(failed_frac ${failed.toDouble / attempted})")
    Seq(Method.Inc, Method.Eh, Method.NoPar).foreach { b =>
      val (u, o) = (med(Method.Ua), med(b))
      note(f"UA reduction vs ${b.key}: ${100 * (o - u) / o}%.1f%% (ua $u%.3f s, ${b.key} $o%.3f s)")
    }
    val metrics =
      Method.all.map(m => s"squery_s.${m.key}" -> Metric(med(m), "s")) ++ Seq(
        "setup_s" -> Metric(Stats.median(setups.map(_.total)), "s"),
        "ok_frac" -> Metric((attempted - failed).toDouble / attempted, "frac"))
    Outcome(failed == 0, attempted, failed, metrics)
  }

  /** Traced run: per-layer time, work and Spark jobs. */
  def traced(): Outcome = {
    val (base, snap, setups, keep) = prepare()
    val components = LabelPartition.combinedComponents(base.graph).values.toSet.size
    val spans = mutable.Buffer.empty[SpanStat]
    val obs   = mutable.Buffer.empty[(String, Double)]
    val per   = mutable.Map.empty[(Method, String), mutable.Buffer[Double]]
    def add(m: Method, k: String, v: Double): Unit = per.getOrElseUpdate((m, k), mutable.Buffer.empty) += v
    val inputs = (0 until TraceScenarios).map { i =>
      val in = scenarios.inputs(base, snap, i)
      val expect = Reference.squery(snap, in)
      rotate(Method.all, i).foreach { m =>
        Harness.cleanupExcept(spark, keep)
        attempted += 2
        try {
          val tag = s"method.${m.key}.$i"
          val t   = System.nanoTime()
          val r   = counter.tagged(tag) { val r = m.run(spark, in); r.squery.count(); r }
          val dt  = since(t)
          val persisted = (Harness.persistedIds(spark) -- keep).size
          val got = Reference.of(r.squery)
          val (jobs, tasks) = counter.counts()
          if (!check(m, in, got, expect)) failed += 1
          Harness.cleanupExcept(spark, keep)

          val tracer = new Tracer(counter, s"span.${m.key}.$i")
          val tr = System.nanoTime()
          val rep = new Replay(spark, tracer).run(m, in)
          rep.squery.count()
          val wall = since(tr)
          val st = tracer.stats()
          if (rep.passes != r.stats.fixpointPasses || rep.eliminated != r.stats.eliminated ||
              Reference.of(rep.squery) != got) {
            failed += 1
            note(s"STALE REPLAY ${m.key} scenario $i: passes ${rep.passes} vs ${r.stats.fixpointPasses}, " +
                 s"eliminated ${rep.eliminated} vs ${r.stats.eliminated}")
          }
          spans ++= st
          obs ++= tracer.observations
          add(m, "time", dt); add(m, "wall", wall)
          add(m, "jobs", jobs(tag).toDouble); add(m, "tasks", tasks(tag).toDouble)
          add(m, "persisted", persisted.toDouble)
          add(m, "passes", rep.passes.toDouble); add(m, "roots", rep.roots.toDouble)
          add(m, "elim_frac", rep.eliminated.toDouble / in.updates)
          add(m, "coverage", st.filter(_.topLevel).map(_.seconds).sum / wall)
        } catch { case NonFatal(e) => failed += 1; note(s"FAILED ${m.key} scenario $i: $e") }
      }
      Harness.cleanupExcept(spark, keep)
      in
    }
    println("fingerprint " + Fingerprint.json(w, seed, base, inputs))

    def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
    def named(n: String) = spans.filter(_.name == n)
    def seen(n: String)  = obs.collect { case (`n`, v) => v }
    def pm(m: Method, k: String) = per.getOrElse((m, k), Nil)
    val out = mutable.Buffer.empty[(String, Metric)]
    def put(n: String, v: Double, unit: String): Unit = out += (n -> Metric(v, unit))
    // `<span>_s` and `<span>_jobs`: mean per call, with or without children.
    def layer(span: String, self: Boolean): Unit = {
      put(s"${span}_s", mean(named(span).map(s => if (self) s.selfSeconds else s.seconds)), "s")
      put(s"${span}_jobs", mean(named(span).map(s => (if (self) s.selfJobs else s.jobs).toDouble)), "count")
    }

    Method.all.foreach { m =>
      put(s"spark.jobs.${m.key}", mean(pm(m, "jobs")), "count")
      put(s"spark.tasks.${m.key}", mean(pm(m, "tasks")), "count")
      put(s"spark.persisted_rdds.${m.key}", mean(pm(m, "persisted")), "count")
    }
    layer("graphs.update", self = false)
    Seq("edge_ins", "node_ins", "edge_del", "node_del").foreach(k => layer(s"incapsp.$k", self = true))
    layer("incapsp.changed_pairs", self = true)
    put("incapsp.changed_pairs", mean(seen("incapsp.changed_pairs")), "count")
    layer("apspbfs.recompute", self = false)
    layer("partitionedapsp.recompute", self = false)
    put("recompute.sources", mean(seen("recompute.sources")), "count")
    put("recompute.source_frac", mean(seen("recompute.source_frac")), "frac")
    put("labelpartition.components", components.toDouble, "count")
    put("labelpartition.scope_frac", mean(seen("labelpartition.scope_frac")), "frac")
    put("der.context_s", mean(named("der.context").map(_.seconds)), "s")
    put("der.can_s", mean(named("der.can").map(_.seconds)), "s")
    put("der.can_nodes", mean(seen("der.can_nodes")), "count")
    put("der.aff_nodes", mean(seen("der.aff_nodes")), "count")
    put("der.cancel_s", mean(named("der.cancel").map(_.seconds)), "s")
    put("der.cancellations", mean(seen("der.cancellations")), "count")
    put("ehtree.build_s", mean(named("ehtree.build").map(_.seconds)), "s")
    Method.all.foreach(m => put(s"ehtree.roots.${m.key}", mean(pm(m, "roots")), "count"))
    Method.all.foreach(m => put(s"ehtree.elim_frac.${m.key}", mean(pm(m, "elim_frac")), "frac"))
    put("bgs.pass_s", mean(named("bgs.pass").map(_.seconds)), "s")
    put("bgs.jobs_per_pass", mean(named("bgs.pass").map(_.jobs.toDouble)), "count")
    Method.all.foreach(m => put(s"bgs.passes.${m.key}", mean(pm(m, "passes")), "count"))
    put("setup.graph_s", Stats.median(setups.map(_.graph)), "s")
    put("setup.slen_s", Stats.median(setups.map(_.slen)), "s")
    put("setup.iquery_s", Stats.median(setups.map(_.iquery)), "s")
    put("setup.slen_rows", base.slenRows.toDouble, "count")
    Method.all.foreach(m => put(s"trace.coverage.${m.key}", mean(pm(m, "coverage")), "frac"))
    val overhead = pm(Method.Ua, "wall").zip(pm(Method.Ua, "time")).map { case (a, b) => a / b }
    put("trace.overhead", Stats.median(overhead.toSeq), "ratio")
    Outcome(failed == 0, attempted, failed, out.toSeq)
  }
}

object Stats {
  /** Median; 0 for no samples (the run then also reports a failure). */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
