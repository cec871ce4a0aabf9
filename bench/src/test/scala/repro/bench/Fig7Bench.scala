package repro.bench

import repro.SparkSpec
import repro.experiments.Fig7

/** Reproduces Fig. 7 as a table: Q1–Q8 runtimes over the base graph vs the
  * 2-hop connector view, for all four datasets, and checks the § VII-F
  * claims that are robust at this scale.
  */
class Fig7Bench extends SparkSpec {

  private lazy val rows = Fig7.run(spark, runs = 1)

  private def speedup(ds: String, q: String): Double =
    rows.find(r => r.dataset == ds && r.query.name.startsWith(q)).get.speedup

  test("Fig. 7 — print per-query runtimes and speedups") {
    println("\n== Fig. 7: query runtimes, base graph vs 2-hop connector view ==")
    println(Fig7.format(rows))
    assert(rows.size == 32) // 8 queries x 4 datasets
  }

  test("Fig. 7 shape: heterogeneous traversal queries benefit from the view") {
    // § VII-F: virtually every query over prov and dblp benefits. Use the
    // geometric mean of the traversal queries to be robust to timing noise.
    for (ds <- Seq("prov", "dblp")) {
      val sps = Seq("Q1", "Q2", "Q3", "Q4").map(q => speedup(ds, q))
      val geo = math.exp(sps.map(math.log).sum / sps.size)
      assert(geo > 1.0, s"$ds traversal geomean speedup $geo (speedups: $sps)")
    }
  }

  test("Fig. 7 shape: Q1 on prov gains clearly from the connector") {
    assert(speedup("prov", "Q1") > 1.2, s"prov Q1 speedup ${speedup("prov", "Q1")}")
  }

  test("Fig. 7 shape: community detection (Q7/Q8) gains on prov") {
    val q7 = speedup("prov", "Q7")
    val q8 = speedup("prov", "Q8")
    assert(math.max(q7, q8) > 1.0, s"prov Q7=$q7 Q8=$q8")
  }

  test("Fig. 7 shape: the homogeneous power-law view loses on the deep traversal") {
    // § VII-F: soc-livejournal's vertex-to-vertex connector is much larger
    // than the raw graph. Q1's 8-hop all-pairs traversal does per-edge work
    // at every hop, so it pays that size directly and the view plan loses.
    // (Q2/Q3 saturate the 4-hop reachable set and become iteration-count
    // bound on Spark, which is substrate noise, so they are not asserted.)
    val q1 = speedup("soc-livejournal", "Q1")
    assert(q1 < 1.1, s"soc Q1 should not benefit from the larger view, got ${q1}x")
  }

  test("Fig. 7 shape: per-dataset view-vs-base sizes explain the runtimes") {
    import repro.core.KHopConnectorView
    import repro.graph.GraphGen
    val prov = GraphGen.provSummarized(spark, 1000).cache()
    val provView = KHopConnectorView("Job", "Job", 2).build(prov)
    assert(provView.edgeCount < prov.edgeCount / 3, "prov view should be much smaller")
    val soc = GraphGen.socLivejournal(spark, 2000).cache()
    val socView = KHopConnectorView("Node", "Node", 2).build(soc)
    assert(socView.edgeCount > soc.edgeCount, "soc view should exceed the raw graph")
    prov.unpersist(); soc.unpersist()
  }
}
