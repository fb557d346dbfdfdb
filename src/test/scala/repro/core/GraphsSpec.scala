package repro.core

import repro.SparkSpec

/** [[DataGraph.update]] on DataFrames and [[GraphRows.update]] on RDDs
  * apply each data update by the same rule.
  */
class GraphsSpec extends SparkSpec {

  private def rows(g: DataGraph): (Seq[(Long, String)], Seq[(Long, Long)]) =
    (g.nodes.collect().map(r => (r.getLong(0), r.getString(1))).toSeq.sorted,
     g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq.sorted)

  private def rows(g: GraphRows): (Seq[(Long, String)], Seq[(Long, Long)]) =
    (g.nodes.collect().toSeq.sorted, g.edges.collect().toSeq.sorted)

  test("DataGraph.update and GraphRows.update give the same node and edge rows for every update kind") {
    val g0 = DataGraph.fromLocal(spark, Seq((0L, "A"), (1L, "B"), (2L, "A"), (3L, "C")),
                                 Seq((0L, 1L), (1L, 2L), (2L, 3L), (2L, 3L)))
    val updates = Seq(
      DataEdgeIns(0L, 2L), // a new edge
      DataEdgeIns(0L, 1L), // an existing edge: no-op
      DataEdgeDel(1L, 2L), // an existing edge
      DataEdgeDel(3L, 0L), // an absent edge: no-op
      DataNodeIns(9L, "B", outTo = Seq(0L, 0L), inFrom = Seq(3L)), // a repeated attachment
      DataNodeDel(2L))
    // Each update alone on the base graph, then all of them in order. The
    // repeated base edge 2 -> 3 stays repeated unless an update touches it.
    updates.foreach { u =>
      withClue(s"$u: ")(assert(rows(g0.update(spark, u)) == rows(Rows.graph(g0).update(u))))
    }
    val all = updates.foldLeft(g0)(_.update(spark, _))
    assert(rows(all) == rows(updates.foldLeft(Rows.graph(g0))(_.update(_))))
    assert(rows(all)._2 == Seq((0L, 1L), (3L, 9L), (9L, 0L)))
  }
}
