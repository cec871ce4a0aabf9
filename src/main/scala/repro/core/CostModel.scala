package repro.core

import repro.cypher.QueryGraph
import repro.graph.{GraphSchema, GraphStats}

/** Kaskade's cost model (paper § V-A): view creation cost (I/O-dominated,
  * ∝ the view's estimated size), and a query evaluation cost proxy
  * (estimated traversal frontier work — our stand-in for the Neo4j
  * cost-based optimizer the paper borrows).
  */
object CostModel {

  /** The paper settles on α=95: an upper bound for most real-world graphs. */
  val DefaultAlpha = 95

  /** Creation cost: I/O-dominated, proportional to the view's size (§ V-A). */
  def creationCost(view: CandidateView, stats: GraphStats, schema: GraphSchema): Double =
    math.max(1.0, view.estimatedSize(stats, schema))

  /** Frontier-work proxy for an anchored traversal: `Σ_{i=1..hops} n·deg^i`.
    * Monotone in both branching factor and hop budget, which is all the
    * view-vs-raw comparison needs (relative ordering, § V-A).
    */
  def traversalCost(nAnchors: Double, deg: Double, hops: Int): Double = {
    val d = math.max(deg, 1.0001) // sub-unit branching still visits the frontier
    (1 to hops).map(i => nAnchors * math.pow(d, i)).sum
  }

  /** Edge-hop budget of a query pattern: fixed edges + var-length uppers. */
  def hopBudget(q: QueryGraph): Int =
    q.edges.size + q.varPaths.map(_.hi).sum

  /** Anchor cardinality: vertices of the type of the pattern's source vertex
    * (first vertex with pattern in-degree 0), or all vertices if untyped.
    */
  def anchorCount(q: QueryGraph, stats: GraphStats): Double = {
    val sourceVar = q.vertexNames.find(v => q.inDegree(v) == 0)
    val sourceType = sourceVar.flatMap(q.vertexLabels.get).flatten
    sourceType.map(t => stats.typeStats(t).n.toDouble).getOrElse(stats.vertexCount.toDouble)
  }

  /** Cost of evaluating `q` directly on the graph. */
  def queryCostOnRaw(q: QueryGraph, stats: GraphStats): Double = {
    val avgDeg = if (stats.vertexCount == 0) 0.0 else stats.edgeCount.toDouble / stats.vertexCount
    traversalCost(anchorCount(q, stats), avgDeg, hopBudget(q))
  }

  /** Cost of evaluating `q` rewritten over a k-hop connector view: the hop
    * budget shrinks by k×, the branching factor becomes the view's average
    * out-degree (distinct successor pairs — the deduplicated view size).
    */
  def queryCostOnView(
      q: QueryGraph,
      view: KHopConnectorView,
      stats: GraphStats,
      schema: GraphSchema,
      materializedViewEdges: Option[Long] = None,
  ): Double = {
    val n = math.max(1.0, stats.typeStats(view.srcType).n.toDouble)
    val viewEdges = materializedViewEdges
      .map(_.toDouble)
      .getOrElse(view.estimatedSize(stats, schema))
    val degView = viewEdges / n
    val hops = math.max(1, hopBudget(q) / view.k)
    traversalCost(anchorCount(q, stats), degView, hops)
  }
}
