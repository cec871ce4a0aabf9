package repro.experiments

import repro.SparkSpec
import repro.graph.{GraphGen, GraphSchema}

/** Fig. 5's edge prefixes, and the § VII-D estimator claims on `Fig5.measure`
  * at prefixes of 1k to 10k edges.
  */
class Fig5PrefixSpec extends SparkSpec {

  private lazy val g = GraphGen.provSummarized(spark, nJobs = 64).cache()

  // Each 10k-edge prefix covers most of its graph (prov 78%, soc about 60%),
  // as Fig5.run's 100k prefix does; the per-edge comparison of prov and soc
  // depends on that share.
  private lazy val rows = {
    val sizes = Seq(1000L, 3000L, 10000L)
    Fig5.measure("prov", GraphGen.provSummarized(spark, 400), GraphSchema.provSummarized, sizes) ++
      Fig5.measure("dblp", GraphGen.dblp(spark, 3000, includeVenues = false),
        GraphSchema.dblpSummarized, sizes) ++
      Fig5.measure("soc-livejournal", GraphGen.socLivejournal(spark, 1000),
        GraphSchema.homogeneous("LINK"), sizes) ++
      Fig5.measure("roadnet-usa", GraphGen.roadnetUsa(spark, 100),
        GraphSchema.homogeneous("ROAD"), sizes)
  }

  private def rowsOf(ds: String) = rows.filter(_.dataset == ds).sortBy(_.prefixEdges)

  test("prefix keeps exactly n edges") {
    assert(Fig5.prefix(g, 100).edgeCount == 100)
  }

  test("prefix larger than the graph keeps everything") {
    val total = g.edgeCount
    assert(Fig5.prefix(g, total + 1000).edgeCount == total)
  }

  test("prefix vertices are exactly the incident ones") {
    import org.apache.spark.sql.functions._
    val p = Fig5.prefix(g, 200)
    val incident = p.edges.select(col("src").as("id"))
      .union(p.edges.select(col("dst").as("id"))).distinct().count()
    assert(p.vertexCount == incident)
  }

  test("prefix is deterministic") {
    val a = Fig5.prefix(g, 150).edges
    val b = Fig5.prefix(g, 150).edges
    assert(a.exceptAll(b).count() == 0)
    assert(b.exceptAll(a).count() == 0)
  }

  test("hash ordering interleaves both edge types early") {
    import org.apache.spark.sql.functions._
    val p = Fig5.prefix(g, 200)
    val types = p.edges.select("etype").distinct().collect().map(_.getString(0)).toSet
    assert(types == Set("WRITES_TO", "IS_READ_BY"))
  }

  test("prefixes are nested: smaller is a subset of larger") {
    val small = Fig5.prefix(g, 100).edges
    val large = Fig5.prefix(g, 300).edges
    assert(small.exceptAll(large).count() == 0)
  }

  test("Fig. 5: Erdős–Rényi underestimates soc, and more so as the prefix grows") {
    val soc = rowsOf("soc-livejournal")
    val last = soc.last
    assert(last.estErdosRenyi < last.actual2Hop,
      s"ER ${last.estErdosRenyi} should underestimate actual ${last.actual2Hop}")
    val firstRatio = soc.head.actual2Hop / math.max(1.0, soc.head.estErdosRenyi)
    val lastRatio = last.actual2Hop / math.max(1.0, last.estErdosRenyi)
    assert(lastRatio > firstRatio, s"underestimation should widen: $firstRatio -> $lastRatio")
  }

  test("Fig. 5: on soc from 10k edges, α=95 bounds the actual size from above, α=50 from below") {
    // The smallest prefixes are near edge-disjoint.
    val soc = rowsOf("soc-livejournal").filter(_.prefixEdges >= 10000)
    assert(soc.nonEmpty)
    soc.foreach { r =>
      assert(r.estAlpha95 >= r.actual2Hop / 2.0,
        s"alpha=95 ${r.estAlpha95} should bound actual ${r.actual2Hop} at |E|=${r.prefixEdges}")
      assert(r.estAlpha50 <= r.actual2Hop * 2.0,
        s"alpha=50 ${r.estAlpha50} should stay below actual ${r.actual2Hop}")
    }
  }

  test("Fig. 5: from 10k edges, α=50 tracks the road network within an order of magnitude") {
    val road = rowsOf("roadnet-usa").filter(_.prefixEdges >= 10000)
    assert(road.nonEmpty)
    road.foreach { r =>
      val ratio = r.estAlpha50 / math.max(1.0, r.actual2Hop.toDouble)
      assert(ratio > 0.1 && ratio < 15.0,
        s"alpha=50 ${r.estAlpha50} vs actual ${r.actual2Hop}: off by ${ratio}x")
    }
  }

  test("Fig. 5: the homogeneous soc 2-hop connector exceeds the graph it is built on") {
    val last = rowsOf("soc-livejournal").last
    assert(last.actual2Hop > last.prefixEdges,
      s"2-hop paths ${last.actual2Hop} vs |E| ${last.prefixEdges}")
  }

  test("Fig. 5: the heterogeneous prov connector is smaller per edge than soc's") {
    val prov = rowsOf("prov").last
    val soc = rowsOf("soc-livejournal").last
    assert(prov.actual2Hop.toDouble / prov.prefixEdges <
      soc.actual2Hop.toDouble / soc.prefixEdges)
  }

  test("Fig. 5: the actual connector size grows with the prefix") {
    for (ds <- rows.map(_.dataset).distinct) {
      val actuals = rowsOf(ds).map(_.actual2Hop)
      assert(actuals == actuals.sorted, s"$ds actuals not monotone: $actuals")
    }
  }
}
