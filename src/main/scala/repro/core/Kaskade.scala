package repro.core

import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.{GraphSchema, GraphStats, PropertyGraph}

/** Facade wiring Kaskade's components together (paper Fig. 2): constraint
  * mining + view enumeration (§ IV), view selection (§ V-B), view
  * materialization on the Spark execution engine, and view-based query
  * rewriting (§ V-C).
  */
final class Kaskade(val schema: GraphSchema, val stats: GraphStats) {

  /** Per view key: the view, its cached graph and its edge count. */
  private var materializedViews: Map[String, (CandidateView, PropertyGraph, Long)] = Map.empty

  /** Parse a Cypher MATCH/RETURN query into its graph pattern. */
  def parse(cypher: String): QueryGraph = CypherParser.parse(cypher)

  /** Candidate views for a query (§ IV). */
  def enumerate(q: QueryGraph): Seq[CandidateView] = ViewEnumerator.enumerate(q, schema)

  /** Select views for a workload under a budget (§ V-B). */
  def selectViews(workload: Seq[QueryGraph], budgetEdges: Long): Seq[ViewSelector.ScoredView] =
    ViewSelector.select(workload, schema, stats, budgetEdges)

  /** Materialize a selected view over `g` on the execution engine, counting
    * its edges once (a key materialized again gets its new size). Both sides
    * are cached in one partition per core, not one per shuffle partition, so
    * that this count and every later scan of the view run that many tasks.
    * The coalesce also gives each side a plan of its own, so unpersisting the
    * view releases only what this call cached: an edge summarizer's vertices
    * are `g`'s, and `g`'s cache stays. The RDD count fills the edge cache in
    * one job, with no aggregate exchange, and runs before the vertices are
    * cached, so that it does not build their cache inside its job.
    */
  def materialize(view: CandidateView, g: PropertyGraph): PropertyGraph = {
    val built = view.build(g)
    val parallelism = built.edges.sparkSession.sparkContext.defaultParallelism
    val edges = built.edges.coalesce(parallelism).cache()
    val size = edges.rdd.count()
    val cached = PropertyGraph(built.vertices.coalesce(parallelism).cache(), edges)
    materializedViews += view.key -> (view, cached, size)
    cached
  }

  /** Currently materialized views. */
  def materialized: Seq[CandidateView] = materializedViews.values.map(_._1).toSeq

  /** Materialized graph for a view key. */
  def viewGraph(view: CandidateView): Option[PropertyGraph] =
    materializedViews.get(view.key).map(_._2)

  /** Edge count of each materialized view, by key, recorded when it was built. */
  def viewSizes: Map[String, Long] = materializedViews.map { case (k, (_, _, n)) => k -> n }

  /** Best view-based rewriting of `q` given the materialized views (§ V-C),
    * costed on their recorded sizes; it runs no Spark job.
    */
  def rewrite(q: QueryGraph): Option[Rewriting] =
    QueryRewriter.rewrite(q, schema, stats, materialized, viewSizes)
}

object Kaskade {
  /** Build a Kaskade instance by profiling `g` (graph-data properties are
    * collected at load time, § V-A).
    */
  def forGraph(g: PropertyGraph, schema: GraphSchema): Kaskade =
    new Kaskade(schema, GraphStats.compute(g))
}
