package repro.gen

import repro.{Oracle, SparkSpec}
import repro.core._
import org.apache.spark.sql.functions._

/** Generators: social graphs (dataset substitutes), patterns (socnetv
  * substitute) and update workloads (§VII protocol).
  */
class GenSpec extends SparkSpec {

  private lazy val g = SocialGraph.generate(spark, n = 200, m = 800, nLabels = 5,
                                            homophily = 0.8, seed = 99)

  test("social graph has the requested node count") {
    assert(g.numNodes == 200)
  }

  test("social graph edge count is near the target (dedup tolerance)") {
    val e = g.numEdges
    assert(e > 600 && e <= 800, s"got $e")
  }

  test("social graph has no self loops and no duplicate edges") {
    assert(g.edges.filter(col("src") === col("dst")).isEmpty)
    assert(g.edges.count() == g.edges.distinct().count())
  }

  test("social graph edges reference existing nodes") {
    val ids = g.nodes.select(col("id"))
    assert(g.edges.join(ids.withColumnRenamed("id", "src"), Seq("src"), "left_anti").isEmpty)
    assert(g.edges.join(ids.withColumnRenamed("id", "dst"), Seq("dst"), "left_anti").isEmpty)
  }

  test("social graph uses the requested label alphabet") {
    val labels = g.nodes.select("label").distinct().collect().map(_.getString(0)).toSet
    assert(labels.subsetOf((0 until 5).map(i => s"L$i").toSet))
    assert(labels.size >= 4) // skew can starve at most the tail label
  }

  test("homophily: most edges stay within a label class") {
    val intra = repro.partition.LabelPartition.annotatedEdges(g)
      .filter(col("srcLabel") === col("dstLabel")).count().toDouble
    val ratio = intra / g.numEdges
    assert(ratio > 0.6, f"intra ratio $ratio%.2f")
  }

  test("label histogram matches the DuckDB oracle") {
    Oracle.assertEquivalent(
      g.nodes.groupBy("label").agg(count(lit(1)).as("n")),
      "SELECT label, COUNT(*) AS n FROM nodes GROUP BY label",
      "nodes" -> g.nodes
    )
  }

  test("generation is deterministic in the seed") {
    val g2 = SocialGraph.generate(spark, n = 200, m = 800, nLabels = 5,
                                  homophily = 0.8, seed = 99)
    assert(g.nodes.exceptAll(g2.nodes).isEmpty && g2.nodes.exceptAll(g.nodes).isEmpty)
    assert(g.edges.exceptAll(g2.edges).isEmpty && g2.edges.exceptAll(g.edges).isEmpty)
  }

  test("different seeds give different graphs") {
    val g2 = SocialGraph.generate(spark, n = 200, m = 800, nLabels = 5,
                                  homophily = 0.8, seed = 100)
    assert(g.edges.exceptAll(g2.edges).count() > 0)
  }

  // ------------------------------------------------------------- PatternGen

  test("pattern generator: node/edge counts and id scheme") {
    val p = PatternGen.generate(7, 9, Seq("L0", "L1", "L2"), seed = 5)
    assert(p.nodes.size == 7)
    assert(p.nodes.map(_.id) == (0 until 7).map(i => s"p$i"))
    assert(p.edges.size >= 6 && p.edges.size <= 9)
  }

  test("pattern generator: bounds in 1..3, labels from the alphabet") {
    val p = PatternGen.generate(8, 10, Seq("L0", "L1"), seed = 6)
    assert(p.edges.forall(e => e.bound >= 1 && e.bound <= 3))
    assert(p.nodes.forall(n => Set("L0", "L1").contains(n.label)))
  }

  test("pattern generator: weakly connected via the backbone") {
    val p = PatternGen.generate(6, 6, Seq("L0"), seed = 7)
    // Undirected connectivity check.
    val adj = p.edges.flatMap(e => Seq(e.src -> e.dst, e.dst -> e.src))
      .groupMap(_._1)(_._2)
    val seen = scala.collection.mutable.Set("p0")
    var frontier = List("p0")
    while (frontier.nonEmpty) {
      frontier = frontier.flatMap(v => adj.getOrElse(v, Nil)).filterNot(seen.contains)
      seen ++= frontier
    }
    assert(seen.size == 6)
  }

  test("pattern generator is deterministic in the seed") {
    val a = PatternGen.generate(6, 8, Seq("L0", "L1"), seed = 8)
    val b = PatternGen.generate(6, 8, Seq("L0", "L1"), seed = 8)
    assert(a == b)
  }

  // -------------------------------------------------------------- UpdateGen

  private lazy val snap = UpdateGen.snapshot(g)

  test("snapshot matches the graph") {
    assert(snap.nodeIds.size == 200)
    assert(snap.edges.size == g.numEdges)
    assert(snap.labelOf.size == 200)
  }

  test("data updates: requested counts per kind") {
    val ups = UpdateGen.dataUpdates(snap, 3, 3, 2, 2, seed = 1)
    assert(ups.count(_.isInstanceOf[DataEdgeIns]) == 3)
    assert(ups.count(_.isInstanceOf[DataEdgeDel]) == 3)
    assert(ups.count(_.isInstanceOf[DataNodeIns]) == 2)
    assert(ups.count(_.isInstanceOf[DataNodeDel]) == 2)
  }

  test("data updates: inserts are non-edges, deletes are existing edges") {
    val ups = UpdateGen.dataUpdates(snap, 4, 4, 0, 0, seed = 2)
    ups.foreach {
      case DataEdgeIns(a, b) => assert(a != b && !snap.edges.contains((a, b)))
      case DataEdgeDel(a, b) => assert(snap.edges.contains((a, b)))
      case other             => fail(s"unexpected $other")
    }
  }

  test("data updates: inserted nodes get fresh ids and valid attachments") {
    val ups = UpdateGen.dataUpdates(snap, 0, 0, 3, 0, seed = 3)
    ups.foreach {
      case DataNodeIns(id, label, out, in) =>
        assert(id > snap.maxId)
        assert(snap.labels.contains(label))
        assert((out ++ in).forall(snap.nodeIds.contains))
      case other => fail(s"unexpected $other")
    }
    assert(ups.map { case DataNodeIns(id, _, _, _) => id; case _ => -1L }.distinct.size == 3)
  }

  test("data updates are applicable in sequence") {
    val ups = UpdateGen.dataUpdates(snap, 3, 3, 2, 2, seed = 4)
    val g2  = repro.bench.Harness.applyAllData(spark, g, ups)
    // edges reference existing nodes after the full sequence
    val ids = g2.nodes.select(col("id"))
    assert(g2.edges.join(ids.withColumnRenamed("id", "src"), Seq("src"), "left_anti").isEmpty)
    assert(g2.edges.join(ids.withColumnRenamed("id", "dst"), Seq("dst"), "left_anti").isEmpty)
  }

  test("pattern updates: valid against the pattern, in kind order") {
    val p   = PatternGen.generate(6, 8, snap.labels, seed = 10)
    val ups = UpdateGen.patternUpdates(p, snap.labels, 2, 1, 1, 1, seed = 11)
    assert(ups.count(_.isInstanceOf[PatEdgeIns]) == 2)
    assert(ups.count(_.isInstanceOf[PatEdgeDel]) == 1)
    assert(ups.count(_.isInstanceOf[PatNodeIns]) == 1)
    assert(ups.count(_.isInstanceOf[PatNodeDel]) == 1)
    val p2 = Updates.applyPatternAll(p, ups) // must not throw
    assert(p2.nodes.nonEmpty)
  }

  test("pattern updates are deterministic in the seed") {
    val p = PatternGen.generate(6, 8, snap.labels, seed = 10)
    val a = UpdateGen.patternUpdates(p, snap.labels, 2, 2, 1, 1, seed = 12)
    val b = UpdateGen.patternUpdates(p, snap.labels, 2, 2, 1, 1, seed = 12)
    assert(a == b)
  }
}
