package repro.partition

import repro.{Oracle, SparkSpec, TestKit}
import repro.core.DataGraph

/** Label-based partition machinery: cross edges and combined components
  * (Algorithm 4's recursion fixpoint).
  */
class LabelPartitionSpec extends SparkSpec {

  /** The Fig. 4 analogue: SE-chain with PM and TE partitions.
    * SE1->SE2->SE3->SE4; SE2->TE1 (cross); SE1->PM1 (cross);
    * PM1->SE1 (cross back); TE1->TE2->TE3 intra.
    */
  private lazy val fig4: DataGraph = DataGraph.fromLocal(
    spark,
    Seq((1L, "SE"), (2L, "SE"), (3L, "SE"), (4L, "SE"),
        (10L, "PM"), (20L, "TE"), (21L, "TE"), (22L, "TE")),
    Seq((1L, 2L), (2L, 3L), (3L, 4L),         // P_SE intra
        (2L, 20L),                            // SE2 -> TE1 cross
        (1L, 10L), (10L, 1L),                 // SE1 <-> PM1 cross
        (20L, 21L), (21L, 22L))               // P_TE intra
  )

  test("crossEdges are recorded in the starting node's partition") {
    val got = LabelPartition.crossEdges(fig4).collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2), r.getString(3))).toSet
    assert(got == Set(("SE", 2L, 20L, "TE"), ("SE", 1L, 10L, "PM"), ("PM", 10L, 1L, "SE")))
  }

  test("crossEdges match the DuckDB SQL oracle") {
    val lg = TestKit.randomGraph(22, n = 30, m = 90)
    val g  = lg.toDataGraph(spark)
    Oracle.assertEquivalent(
      LabelPartition.crossEdges(g),
      """SELECT ns.label AS pid, e.src AS src, e.dst AS dst, nd.label AS dstPid
        |FROM edges e
        |JOIN nodes ns ON e.src = ns.id
        |JOIN nodes nd ON e.dst = nd.id
        |WHERE ns.label <> nd.label""".stripMargin,
      "nodes" -> g.nodes, "edges" -> g.edges
    )
  }

  test("combinedComponents: cross edges merge labels") {
    val comp = LabelPartition.combinedComponents(fig4)
    assert(comp("SE") == comp("PM") && comp("SE") == comp("TE"))
  }

  test("combinedComponents: disconnected label stays its own component") {
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B"), (4L, "C")),
      Seq((1L, 2L), (1L, 3L)) // A-B connected, C isolated
    )
    val comp = LabelPartition.combinedComponents(g)
    assert(comp("A") == comp("B"))
    assert(comp("C") != comp("A"))
  }

  test("combinedComponents with no cross edges: one component per label") {
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B"), (4L, "B")),
      Seq((1L, 2L), (3L, 4L))
    )
    val comp = LabelPartition.combinedComponents(g)
    assert(comp.values.toSet.size == 2)
  }
}
