package repro.experiments

import repro.SparkSpec

/** Table III's scale-invariant shape, on `Table3.run` with 16 provenance
  * jobs: E/V ratios close to the paper's, and a raw provenance graph that
  * tasks make far larger than the summarized one.
  */
class Table3Spec extends SparkSpec {

  private lazy val rows = Table3.run(spark, nJobs = 16)

  private def row(name: String) = rows.find(_.name == name).get

  test("Table III: raw prov is more than 30x the summarized graph") {
    val (raw, summ) = (row("prov (raw)"), row("prov (summarized)"))
    assert(raw.edges.toDouble / summ.edges > 30.0,
      s"raw/summarized edge ratio too small: ${raw.edges}/${summ.edges}")
    assert(raw.vertices.toDouble / summ.vertices > 30.0)
  }

  test("Table III: E/V ratios track the paper's") {
    for ((name, tolFactor) <- Seq("prov (summarized)" -> 2.0, "dblp-net" -> 2.0,
        "soc-livejournal" -> 2.0, "roadnet-usa" -> 1.5)) {
      val r = row(name)
      assert(r.evRatio > r.paperEvRatio / tolFactor && r.evRatio < r.paperEvRatio * tolFactor,
        s"$name E/V=${r.evRatio} vs paper ${r.paperEvRatio}")
    }
  }
}
