package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.{DatasetSpec, Datasets, Harness}
import repro.core._
import repro.gen.{GraphSnapshot, PatternGen, UpdateGen}

/** How many updates of each kind one scenario draws. */
final case class Mix(edgeIns: Int, edgeDel: Int, nodeIns: Int, nodeDel: Int)

/** One benchmark workload: the mix of data updates each scenario draws
  * from the run's seed, and the mix of `ΔG_P`, which `UpdateGen` draws once
  * from [[Workloads.PatternSeed]]. The pattern side is part of the workload:
  * a random pattern edit changes how many BGS iterations every later pass
  * takes, which would make the seed, not the code, set the time.
  */
final case class Workload(name: String, data: Mix, pattern: Mix)

object Workloads {

  /** Every workload runs on this dataset and pattern, so every scenario of
    * every run shares the pattern and its IQuery. The pattern (4 nodes,
    * 5 edges) has 126 matches on the graph.
    */
  val Dataset: DatasetSpec = Datasets.all.find(_.name == "email-EU-core-lite").get
  val PatternNodes = 4
  val PatternEdges = 5
  val PatternSeed  = 6L

  /** Two workloads that stress different layers (see README.md). */
  val all: Seq[Workload] = Seq(
    // DER-I, the EH-Tree and BGS passes; SLen sees inserts only. ΔG_P
    // (insert p2->p1, delete p2->p0) lets DER-I eliminate the delete, whose
    // candidate set is empty.
    Workload("pattern-email", data = Mix(0, 0, 1, 0), pattern = Mix(1, 1, 0, 0)),
    // Restricted-source recompute in both engines and the changed-pair diff;
    // no pattern updates, so DER-I/III never run.
    Workload("delete-email", data = Mix(0, 1, 0, 0), pattern = Mix(0, 0, 0, 0)),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}

/** The prepared inputs every scenario shares: the data graph, its full
  * SLen, the pattern and its IQuery (§III-C treats SLen and IQuery as given).
  */
final case class Base(graph: DataGraph, slen: DataFrame, pattern: PatternGraph, iquery: DataFrame,
                      nodes: Long, edges: Long, slenRows: Long)

/** Seconds spent in each set-up phase. */
final case class SetupTimes(graph: Double, slen: Double, iquery: Double) {
  def total: Double = graph + slen + iquery
}

/** One scenario's inputs. */
final case class Inputs(index: Int, graph: DataGraph, pattern: PatternGraph, slen: DataFrame,
                        iquery: DataFrame, dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate]) {
  def updates: Int = dUps.size + pUps.size
}

object Setup {
  val Cap: Int = Harness.Cap

  private def secs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Generate the graph, its full SLen and the pattern's IQuery, all
    * materialised, as `Harness.prepareGraph`/`preparePattern` do.
    */
  def prepare(spark: SparkSession): (Base, SetupTimes) = {
    val s = Workloads.Dataset
    val ((g, labels, nV, nE), tGraph) = secs {
      val g = repro.gen.SocialGraph.generate(spark, s.nNodes, s.nEdges, s.nLabels, s.homophily, s.seed)
      val labels = g.nodes.select("label").distinct().collect().map(_.getString(0)).sorted.toSeq
      (g, labels, g.numNodes, g.numEdges)
    }
    val ((slen, rows), tSlen) = secs {
      val slen = SlenOps(Cap, partitioned = true).fullApsp(spark, g)
      (slen, slen.cache().count())
    }
    val p = PatternGen.generate(Workloads.PatternNodes, Workloads.PatternEdges, labels, Workloads.PatternSeed)
    val (iq, tIq) = secs(Bgs.run(spark, g, p, slen, Cap).localCheckpoint())
    (Base(g, slen, p, iq, nV, nE, rows), SetupTimes(tGraph, tSlen, tIq))
  }
}

/** Scenario inputs derived from the run's seed: scenario `i` always draws
  * the same data updates for the same seed, workload and graph.
  */
final class Scenarios(w: Workload, seed: Long) {

  /** Scenarios per run stay far below 1000, so seeds never share a value. */
  private def derive(i: Int): Long = seed * 1000 + i

  def inputs(base: Base, snap: GraphSnapshot, i: Int): Inputs = {
    val d = w.data; val pm = w.pattern
    val dUps = UpdateGen.dataUpdates(snap, d.edgeIns, d.edgeDel, d.nodeIns, d.nodeDel, derive(i))
    val pUps = UpdateGen.patternUpdates(base.pattern, snap.labels, pm.edgeIns, pm.edgeDel,
                                        pm.nodeIns, pm.nodeDel, Workloads.PatternSeed)
    Inputs(i, base.graph, base.pattern, base.slen, base.iquery, dUps, pUps)
  }
}

/** The expected SQuery: brute-force GPNM on the driver-side updated graph,
  * independent of the Spark kernels under test.
  */
object Reference {

  def squery(snap: GraphSnapshot, in: Inputs): Map[String, Set[Long]] = {
    var nodes = snap.labelOf
    var edges = snap.edges
    in.dUps.foreach {
      case DataEdgeIns(a, b) => edges += ((a, b))
      case DataEdgeDel(a, b) => edges -= ((a, b))
      case DataNodeIns(id, label, outTo, inFrom) =>
        nodes += (id -> label)
        edges ++= outTo.map(t => (id, t)) ++ inFrom.map(s => (s, id))
      case DataNodeDel(id) =>
        nodes -= id
        edges = edges.filter { case (a, b) => a != id && b != id }
    }
    val p = Updates.applyPatternAll(in.pattern, in.pUps)
    LocalRef.gpnm(nodes.toSeq.sortBy(_._1), edges.toSeq.sorted, p, Setup.Cap).filter(_._2.nonEmpty)
  }

  /** A GPNM result in the reference's form (unmatched pattern nodes absent). */
  def of(squery: DataFrame): Map[String, Set[Long]] =
    Harness.collectResult(squery).filter(_._2.nonEmpty)
}

/** The input fingerprint printed with every run: two runs are comparable
  * only when their graph and shared scenario fingerprints are equal.
  */
object Fingerprint {

  def pattern(p: PatternGraph): String =
    p.nodes.map(n => s"${n.id}:${n.label}").mkString(",") + ";" +
      p.edges.map(e => s"${e.src}>${e.dst}/${e.bound}").mkString(",")

  def json(w: Workload, seed: Long, base: Base, scenarios: Seq[Inputs]): String = {
    val sc = scenarios.map { in =>
      s"""{"index":${in.index},"updates":[${(in.dUps ++ in.pUps).map(u => Json.str(u.toString)).mkString(",")}]}"""
    }
    s"""{"workload":${Json.str(w.name)},"seed":$seed,""" +
      s""""graph":{"nodes":${base.nodes},"edges":${base.edges},"slen_rows":${base.slenRows},""" +
      s""""pattern":${Json.str(pattern(base.pattern))}},""" +
      s""""scenarios":[${sc.mkString(",")}]}"""
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not finite")
    v.toString
  }
}
