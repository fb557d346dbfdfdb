package repro

import repro.core._
import repro.gen.UpdateGen

/** Fast end-to-end smoke: APSP, GPNM, one update round through UA-GPNM.
  * Runs first alphabetically-ish; catches wiring errors before the deep
  * suites.
  */
class SmokeSpec extends SparkSpec {
  private val cap = 8

  test("smoke: APSP + GPNM + UA-GPNM round trip on a tiny graph") {
    val lg = TestKit.randomGraph(seed = 1, n = 25, m = 70)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, seed = 2, nNodes = 3, nEdges = 3)

    val slen = SlenOps(cap).fullApsp(spark, g)
    assert(TestKit.collectSlen(slen) == LocalRef.apsp(lg.nodeIds, lg.edges, cap))

    val iquery = Bgs.run(spark, g, p, slen, cap)
    assert(TestKit.collectMatches(iquery, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))

    val snap = UpdateGen.snapshot(g)
    val dUps = UpdateGen.dataUpdates(snap, 1, 1, 1, 1, seed = 3)
    val pUps = UpdateGen.patternUpdates(p, snap.labels, 1, 1, 0, 0, seed = 4)
    val res  = GpnmMethods.uaGpnm(spark, g, p, iquery, slen, dUps, pUps, cap)

    val lgNew  = TestKit.applyDataLocal(lg, dUps)
    val pNew   = Updates.applyPatternAll(p, pUps)
    val expect = LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap)
    assert(TestKit.collectMatches(res.squery, pNew) == expect)
    assert(res.stats.fixpointPasses >= 1)
  }
}
