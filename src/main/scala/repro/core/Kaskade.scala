package repro.core

import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.{GraphSchema, GraphStats, PropertyGraph}

/** Facade wiring Kaskade's components together (paper Fig. 2): constraint
  * mining + view enumeration (§ IV), view selection (§ V-B), view
  * materialization on the Spark execution engine, and view-based query
  * rewriting (§ V-C).
  */
final class Kaskade(val schema: GraphSchema, val stats: GraphStats) {

  private var materializedViews: Map[String, (CandidateView, PropertyGraph)] = Map.empty

  /** Parse a Cypher MATCH/RETURN query into its graph pattern. */
  def parse(cypher: String): QueryGraph = CypherParser.parse(cypher)

  /** Candidate views for a query (§ IV). */
  def enumerate(q: QueryGraph): Seq[CandidateView] = ViewEnumerator.enumerate(q, schema)

  /** Select views for a workload under a budget (§ V-B). */
  def selectViews(workload: Seq[QueryGraph], budgetEdges: Long): Seq[ViewSelector.ScoredView] =
    ViewSelector.select(workload, schema, stats, budgetEdges)

  /** Materialize a selected view over `g` on the execution engine. */
  def materialize(view: CandidateView, g: PropertyGraph): PropertyGraph = {
    val cached = view.build(g).cache()
    materializedViews += view.key -> (view, cached)
    cached
  }

  /** Currently materialized views. */
  def materialized: Seq[CandidateView] = materializedViews.values.map(_._1).toSeq

  /** Materialized graph for a view key. */
  def viewGraph(view: CandidateView): Option[PropertyGraph] =
    materializedViews.get(view.key).map(_._2)

  /** Best view-based rewriting of `q` given the materialized views (§ V-C),
    * using actual materialized sizes when available.
    */
  def rewrite(q: QueryGraph): Option[Rewriting] = {
    val sizes = materializedViews.map { case (k, (_, g)) => k -> g.edgeCount }
    QueryRewriter.rewrite(q, schema, stats, materialized, sizes)
  }
}

object Kaskade {
  /** Build a Kaskade instance by profiling `g` (graph-data properties are
    * collected at load time, § V-A).
    */
  def forGraph(g: PropertyGraph, schema: GraphSchema): Kaskade =
    new Kaskade(schema, GraphStats.compute(g))
}
