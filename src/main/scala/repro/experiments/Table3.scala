package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen

/** Reproduction of Table III: the evaluation networks and their sizes.
  *
  * The paper's graphs are proprietary (prov) or offline-unavailable; the
  * synthetic generators target the same E/V ratios and the same raw-vs-
  * summarized reduction shape at a laptop scale factor (DESIGN.md § 2).
  */
object Table3 {

  final case class Row(
      name: String,
      graphType: String,
      vertices: Long,
      edges: Long,
      paperV: Double,
      paperE: Double,
  ) {
    def evRatio: Double = if (vertices == 0) 0 else edges.toDouble / vertices
    def paperEvRatio: Double = if (paperV == 0) 0 else paperE / paperV
  }

  private val TasksPerJob = 1000
  private val DblpAuthors = 20000L
  private val SocVertices = 20000L
  private val RoadSide = 160L

  /** Generate all five Table III rows at bench scale, with `nJobs` jobs in
    * both provenance graphs.
    */
  def run(spark: SparkSession, nJobs: Long = 256): Seq[Row] = {
    val provRaw = GraphGen.provRaw(spark, nJobs, tasksPerJob = TasksPerJob).cache()
    val provSumm = GraphGen.provSummarized(spark, nJobs).cache()
    val dblp = GraphGen.dblp(spark, DblpAuthors).cache()
    val soc = GraphGen.socLivejournal(spark, SocVertices).cache()
    val road = GraphGen.roadnetUsa(spark, RoadSide).cache()

    val rows = Seq(
      Row("prov (raw)", "Data lineage", provRaw.vertexCount, provRaw.edgeCount, 3.2e9, 16.4e9),
      Row("prov (summarized)", "Data lineage", provSumm.vertexCount, provSumm.edgeCount, 7e6, 34e6),
      Row("dblp-net", "Publications", dblp.vertexCount, dblp.edgeCount, 5.1e6, 24.7e6),
      Row("soc-livejournal", "Social network", soc.vertexCount, soc.edgeCount, 4.8e6, 68.9e6),
      Row("roadnet-usa", "Road network", road.vertexCount, road.edgeCount, 23.9e6, 28.8e6),
    )
    Seq(provRaw, provSumm, dblp, soc, road).foreach(_.unpersist())
    rows
  }

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    table(
      Seq("Short Name", "Type", "|V| (ours)", "|E| (ours)", "E/V (ours)",
        "|V| (paper)", "|E| (paper)", "E/V (paper)"),
      rows.map(r => Seq(
        r.name, r.graphType, fmtCount(r.vertices), fmtCount(r.edges), f"${r.evRatio}%.2f",
        fmtCount(r.paperV), fmtCount(r.paperE), f"${r.paperEvRatio}%.2f")))
  }
}
