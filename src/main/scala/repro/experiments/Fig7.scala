package repro.experiments

import org.apache.spark.sql.SparkSession
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

  /** One query's runtimes and the row counts its two plans return. */
  final case class Row(
      dataset: String, query: String, baseMs: Double, viewMs: Double, baseRows: Long, viewRows: Long) {
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

    def both(q: String)(onBase: => Long)(onView: => Long): Row = {
      val (nBase, tBase) = timeMs(runs = runs)(onBase)
      val (nView, tView) = timeMs(runs = runs)(onView)
      Row(spec.name, q, tBase, tView, nBase, nView)
    }

    val r1 = both("Q1 blast radius") {
      Queries.q1BlastRadius(base, spec.anchorType, spec.q1Hops).count()
    } {
      Queries.q1BlastRadius(view, spec.anchorType, spec.q1Hops / 2).count()
    }
    val r2 = both("Q2 ancestors") {
      Queries.q2Ancestors(base, spec.anchorType, spec.q234Hops).count()
    } {
      Queries.q2Ancestors(view, spec.anchorType, spec.q234Hops / 2).count()
    }
    val r3 = both("Q3 descendants") {
      Queries.q3Descendants(base, spec.anchorType, spec.q234Hops).count()
    } {
      Queries.q3Descendants(view, spec.anchorType, spec.q234Hops / 2).count()
    }
    val r4 = both("Q4 path lengths") {
      Queries.q4PathLengths(base, source, spec.q234Hops).count()
    } {
      Queries.q4PathLengths(view, source, spec.q234Hops / 2).count()
    }
    val r5 = both("Q5 edge count")(Queries.q5EdgeCount(base))(Queries.q5EdgeCount(view))
    val r6 = both("Q6 vertex count")(Queries.q6VertexCount(base))(Queries.q6VertexCount(view))

    // Q7/Q8: time LPA, keep labels for the largest-community query.
    var baseLabels: org.apache.spark.sql.DataFrame = null
    var viewLabels: org.apache.spark.sql.DataFrame = null
    val r7 = both("Q7 community detection") {
      baseLabels = Queries.q7CommunityDetection(base, spec.lpaIters); baseLabels.count()
    } {
      viewLabels = Queries.q7CommunityDetection(view, spec.lpaIters / 2); viewLabels.count()
    }
    val r8 = both("Q8 largest community") {
      Queries.q8LargestCommunity(base, baseLabels, spec.anchorType)._2
    } {
      Queries.q8LargestCommunity(view, viewLabels, spec.anchorType)._2
    }

    view.unpersist(); base.unpersist()
    Seq(r1, r2, r3, r4, r5, r6, r7, r8)
  }

  def run(spark: SparkSession, runs: Int = 1): Seq[Row] =
    defaultSpecs(spark).flatMap(runDataset(_, runs))

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    table(
      Seq("dataset", "query", "base (ms)", "2-hop view (ms)", "speedup"),
      rows.map(r => Seq(r.dataset, r.query, f"${r.baseMs}%.0f", f"${r.viewMs}%.0f",
        f"${r.speedup}%.2fx")))
  }
}
