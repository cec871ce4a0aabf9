package repro.experiments

import repro.SparkSpec
import repro.graph.GraphGen

/** Fig. 6's § VII-E reduction claims, on `Fig6.stages` over a 64-job
  * provenance funnel (`Fig6.run`'s generator settings) and a small dblp.
  */
class Fig6Spec extends SparkSpec {

  private lazy val rows =
    Fig6.stages("prov",
      GraphGen.provRaw(spark, 64, tasksPerJob = 2000, fanOut = 24, readers = 4, crossFrac = 0.02),
      keepTypes = Seq("Job", "File"), connectorType = "Job") ++
      Fig6.stages("dblp", GraphGen.dblp(spark, 2000, includeVenues = true),
        keepTypes = Seq("Author", "Publication"), connectorType = "Author")

  private def reduction(ds: String, from: String, to: String): Double = {
    def size(stage: String) =
      rows.find(r => r.dataset == ds && r.stage == stage).get.effectiveSize.toDouble
    size(from) / size(to)
  }

  test("Fig. 6: the prov summarizer reduces by well over an order of magnitude") {
    val r = reduction("prov", "raw", "summarizer")
    assert(r > 20.0, s"prov summarizer reduction only ${r}x")
  }

  test("Fig. 6: the prov connector reduces the summarized graph further") {
    val r = reduction("prov", "summarizer", "2-hop connector")
    assert(r > 3.0, s"prov connector reduction only ${r}x")
  }

  test("Fig. 6: the whole prov chain reduces by more than two orders of magnitude") {
    val r = reduction("prov", "raw", "2-hop connector")
    assert(r > 100.0, s"prov total reduction only ${r}x")
  }

  test("Fig. 6: the dblp summarizer trims venues modestly") {
    val r = reduction("dblp", "raw", "summarizer")
    assert(r > 1.05 && r < 10.0, s"dblp summarizer reduction ${r}x")
  }

  test("Fig. 6: the dblp connector reduces the summarized graph") {
    val r = reduction("dblp", "summarizer", "2-hop connector")
    assert(r > 1.5, s"dblp connector reduction only ${r}x")
  }
}
