package repro.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.SizeEstimator
import repro.engine.GraphOps
import repro.graph.{GraphGen, GraphSchema, GraphStats, PropertyGraph}

/** Reproduction of Fig. 5 (as a table): estimated vs. actual 2-hop connector
  * sizes over edge-count prefixes of each dataset, for the Erdős–Rényi
  * estimator (Eq. 1) and the degree-percentile estimators at α=50 and α=95
  * (Eq. 2/3), alongside the original graph size |E|.
  */
object Fig5 {

  final case class Row(
      dataset: String,
      prefixEdges: Long,
      vertices: Long,
      actual2Hop: Long,
      estAlpha50: Double,
      estAlpha95: Double,
      estErdosRenyi: Double,
  )

  /** Deterministic prefix of `n` edges (hash order, so edge types interleave
    * as they would in an on-disk edge file) with their incident vertices.
    */
  def prefix(g: PropertyGraph, n: Long): PropertyGraph = {
    val e = g.edges.orderBy(xxhash64(col("src"), col("dst"), col("etype"))).limit(n.toInt)
    val ids = e.select(col("src").as("id")).union(e.select(col("dst").as("id"))).distinct()
    PropertyGraph(g.vertices.join(ids, Seq("id"), "left_semi"), e)
  }

  def measure(name: String, g: PropertyGraph, schema: GraphSchema, sizes: Seq[Long]): Seq[Row] = {
    val cached = g.cache()
    val total = cached.edgeCount
    val rows = sizes.filter(_ <= total).map { n =>
      val p = prefix(cached, n).cache()
      val stats = GraphStats.compute(p)
      val actual = GraphOps.countKHopPaths(p, 2)
      val row = Row(
        dataset = name,
        prefixEdges = n,
        vertices = stats.vertexCount,
        actual2Hop = actual,
        estAlpha50 = SizeEstimator.estimate(stats, schema, 2, 50),
        estAlpha95 = SizeEstimator.estimate(stats, schema, 2, 95),
        estErdosRenyi = SizeEstimator.erdosRenyi(stats.vertexCount, stats.edgeCount, 2))
      p.unpersist()
      row
    }
    cached.unpersist()
    rows
  }

  private val Sizes = Seq(3000L, 10000L, 30000L, 100000L)
  private val ProvJobs = 4000L
  private val DblpAuthors = 10000L
  private val SocVertices = 10000L
  private val RoadSide = 230L

  /** Run the experiment over all four datasets. */
  def run(spark: SparkSession): Seq[Row] =
    measure("prov", GraphGen.provSummarized(spark, ProvJobs), GraphSchema.provSummarized, Sizes) ++
      measure("dblp", GraphGen.dblp(spark, DblpAuthors, includeVenues = false),
        GraphSchema.dblpSummarized, Sizes) ++
      measure("soc-livejournal", GraphGen.socLivejournal(spark, SocVertices),
        GraphSchema.homogeneous("LINK"), Sizes) ++
      measure("roadnet-usa", GraphGen.roadnetUsa(spark, RoadSide),
        GraphSchema.homogeneous("ROAD"), Sizes)

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    table(
      Seq("dataset", "|E| prefix", "|V|", "actual 2-hop", "est a=50", "est a=95", "est Erdos-Renyi"),
      rows.map(r => Seq(
        r.dataset, fmtCount(r.prefixEdges), fmtCount(r.vertices), fmtCount(r.actual2Hop),
        fmtCount(r.estAlpha50), fmtCount(r.estAlpha95), fmtCount(r.estErdosRenyi))))
  }
}
