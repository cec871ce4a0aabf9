package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KHopConnectorView
import repro.engine.Queries
import repro.graph.{GraphGen, PropertyGraph}

/** Reproduction of Fig. 7 (as a table): total runtime of Q1–Q8 over the
  * (summarized) base graph vs. rewritten over a materialized 2-hop connector
  * view, per dataset. As in the paper, the rewritten traversal queries run
  * half the hops, LPA runs half the passes, and Q5/Q6 are unmodified counts
  * over the graph at hand. The base graph and the view share one layout,
  * one partition per core (`PropertyGraph.compact`), so the ratio measures
  * the view and not a cheaper layout that only the view gets. Each row also
  * keeps the row counts of both plans, which Table IV reports.
  */
object Fig7 {

  /** One side of a dataset's run: the graph its plans read, the divisor of
    * their hop and pass bounds (1 on the base graph, 2 on the 2-hop
    * connector), the anchor vertex Q4 starts from, and the labels of the
    * side's last Q7 run, which Q8 reads.
    */
  final class Side private[Fig7] (
      val spec: DatasetSpec, val graph: PropertyGraph, val divisor: Int, val source: Long) {
    private[Fig7] var labels: DataFrame = _
  }

  /** A Table IV query: its name, operation and result kind, and how it runs
    * on one side, returning its row count.
    */
  final case class Query(name: String, operation: String, result: String, run: Side => Long)

  /** The workload Q1–Q8, in the paper's order. */
  val queries: Seq[Query] = Seq(
    Query("Q1: Job Blast Radius", "Retrieval", "Subgraph",
      s => Queries.q1BlastRadius(s.graph, s.spec.anchorType, s.spec.q1Hops / s.divisor).count()),
    Query("Q2: Ancestors", "Retrieval", "Set of vertices",
      s => Queries.q2Ancestors(s.graph, s.spec.anchorType, s.spec.q234Hops / s.divisor).count()),
    Query("Q3: Descendants", "Retrieval", "Set of vertices",
      s => Queries.q3Descendants(s.graph, s.spec.anchorType, s.spec.q234Hops / s.divisor).count()),
    Query("Q4: Path lengths", "Retrieval", "Bag of scalars",
      s => Queries.q4PathLengths(s.graph, s.source, s.spec.q234Hops / s.divisor).count()),
    Query("Q5: Edge Count", "Retrieval", "Single scalar", s => Queries.q5EdgeCount(s.graph)),
    Query("Q6: Vertex Count", "Retrieval", "Single scalar", s => Queries.q6VertexCount(s.graph)),
    // The timed body runs the LPA passes on every run; Q8 reads the last labels.
    Query("Q7: Community Detection", "Update", "N/A", { s =>
      s.labels = Queries.q7CommunityDetection(s.graph, s.spec.lpaIters / s.divisor)
      s.labels.count()
    }),
    Query("Q8: Largest Community", "Retrieval", "Subgraph",
      s => Queries.q8LargestCommunity(s.graph, s.labels, s.spec.anchorType)._2),
  )

  /** One query's runtimes and the row counts its two plans return. */
  final case class Row(
      dataset: String, query: Query, baseMs: Double, viewMs: Double, baseRows: Long, viewRows: Long) {
    def speedup: Double = if (viewMs <= 0) 0 else baseMs / viewMs
  }

  final case class DatasetSpec(
      name: String,
      graph: PropertyGraph,
      anchorType: String,
      q1Hops: Int = 8,
      q234Hops: Int = 4,
      lpaIters: Int = 10,
  )

  def defaultSpecs(spark: SparkSession): Seq[DatasetSpec] = Seq(
    DatasetSpec("prov", GraphGen.provSummarized(spark, nJobs = 1000), "Job"),
    DatasetSpec("dblp", GraphGen.dblp(spark, nAuthors = 2000, includeVenues = false), "Author"),
    DatasetSpec("soc-livejournal", GraphGen.socLivejournal(spark, nVertices = 2000), "Node"),
    DatasetSpec("roadnet-usa", GraphGen.roadnetUsa(spark, side = 100), "Node"),
  )

  /** Run the full workload for one dataset; returns one row per query. */
  def runDataset(spec: DatasetSpec, runs: Int = 1): Seq[Row] = {
    import ExperimentUtil.timeMs
    val base = spec.graph.compact.cache()
    base.vertexCount; base.edgeCount // force
    val view = KHopConnectorView(spec.anchorType, spec.anchorType, 2).build(base).compact.cache()
    view.vertexCount; view.edgeCount // force (materialization cost excluded, as in the paper)

    val source = base.verticesOfType(spec.anchorType)
      .agg(min(col("id"))).collect()(0).getLong(0)
    val onBase = new Side(spec, base, 1, source)
    val onView = new Side(spec, view, 2, source)

    val rows = queries.map { q =>
      val (nBase, tBase) = timeMs(runs)(q.run(onBase))
      val (nView, tView) = timeMs(runs)(q.run(onView))
      Row(spec.name, q, tBase, tView, nBase, nView)
    }
    view.unpersist(); base.unpersist()
    rows
  }

  def run(spark: SparkSession, runs: Int = 1): Seq[Row] =
    defaultSpecs(spark).flatMap(runDataset(_, runs))

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    table(
      Seq("dataset", "query", "base (ms)", "2-hop view (ms)", "speedup"),
      rows.map(r => Seq(r.dataset, r.query.name, f"${r.baseMs}%.0f", f"${r.viewMs}%.0f",
        f"${r.speedup}%.2fx")))
  }
}
