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
    * its edges once (a key materialized again gets its new size). The view is
    * built from `g.compact` and both its sides are cached through `compact`,
    * so the build, this count and every later scan of the view run one task
    * per core, whatever layout `g` has. Each side thus has a plan of its own,
    * so unpersisting the view releases only what this call cached: an edge
    * summarizer's vertices are `g`'s, and `g`'s cache stays. The RDD count
    * fills the edge cache in one job, with no aggregate exchange, and runs
    * before the vertices are cached, so that it does not build their cache
    * inside its job. The build semi-joins its endpoint-type id sets through
    * broadcasts (DESIGN.md § 1, set-up join rule): materializing the Job→Job
    * 2-hop connector runs 7 Spark jobs, this count included, in
    * `KaskadeIntegrationSpec`; kbench's `prov-views` span around it, which
    * also counts both sides of the view, runs 12.
    *
    * A view this call replaces is released before the build: a build over the
    * same graph has the same plan, and Spark's cache manager would share the
    * old cache entry with the new view.
    */
  def materialize(view: CandidateView, g: PropertyGraph): PropertyGraph = {
    materializedViews.get(view.key).foreach(_._2.unpersist())
    val built = view.build(g.compact).compact
    val edges = built.edges.cache()
    val size = edges.rdd.count()
    val cached = PropertyGraph(built.vertices.cache(), edges)
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
