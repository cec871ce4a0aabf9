package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.{KHopConnectorView, VertexInclusionSummarizerView}
import repro.graph.{GraphGen, PropertyGraph}

/** Reproduction of Fig. 6 (as a table): effective graph size (vertices +
  * edges) of the raw graph, after the schema-level summarizer, and after the
  * 2-hop connector, for the two heterogeneous networks.
  */
object Fig6 {

  final case class Row(dataset: String, stage: String, vertices: Long, edges: Long) {
    def effectiveSize: Long = vertices + edges
  }

  private[repro] def stages(
      name: String,
      raw: PropertyGraph,
      keepTypes: Seq[String],
      connectorType: String,
  ): Seq[Row] = {
    val cachedRaw = raw.cache()
    val summarized = VertexInclusionSummarizerView(keepTypes).build(cachedRaw).cache()
    val connector = KHopConnectorView(connectorType, connectorType, 2).build(summarized).cache()
    val rows = Seq(
      Row(name, "raw", cachedRaw.vertexCount, cachedRaw.edgeCount),
      Row(name, "summarizer", summarized.vertexCount, summarized.edgeCount),
      Row(name, "2-hop connector", connector.vertexCount, connector.edgeCount))
    Seq(cachedRaw, summarized, connector).foreach(_.unpersist())
    rows
  }

  private val ProvJobs = 256L
  private val ProvTasksPerJob = 2000
  private val DblpAuthors = 20000L

  def run(spark: SparkSession): Seq[Row] =
    // Production-like funnel: each job writes many files, all consumed by a
    // small successor set — this is what gives the connector its own
    // order-of-magnitude reduction on top of the summarizer (§ VII-E).
    stages("prov",
      GraphGen.provRaw(spark, ProvJobs, tasksPerJob = ProvTasksPerJob,
        fanOut = 24, readers = 4, crossFrac = 0.02),
      keepTypes = Seq("Job", "File"), connectorType = "Job") ++
      stages("dblp",
        GraphGen.dblp(spark, DblpAuthors, includeVenues = true),
        keepTypes = Seq("Author", "Publication"), connectorType = "Author")

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    val base = rows.groupBy(_.dataset).view.mapValues(_.head.effectiveSize.toDouble).toMap
    table(
      Seq("dataset", "stage", "|V|", "|E|", "effective size", "reduction vs raw"),
      rows.map(r => Seq(
        r.dataset, r.stage, fmtCount(r.vertices), fmtCount(r.edges),
        fmtCount(r.effectiveSize),
        f"${base(r.dataset) / math.max(1.0, r.effectiveSize.toDouble)}%.1fx")))
  }
}
