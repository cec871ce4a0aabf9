package repro.core

import repro.cypher.QueryGraph
import repro.graph.{GraphSchema, GraphStats}

/** View selection (paper § V-B): given a query workload, pick the views to
  * materialize under a space budget, as a 0-1 knapsack — weight = estimated
  * view size, value = Σ_q (performance improvement of the view for q)
  * divided by the view's creation cost.
  */
object ViewSelector {

  /** A candidate scored against the whole workload. */
  final case class ScoredView(
      view: CandidateView,
      size: Double,
      creationCost: Double,
      improvement: Double,
  ) {
    /** Knapsack value: improvement penalized by creation cost (§ V-B). */
    def value: Double = improvement / math.max(creationCost, 1.0)
  }

  /** Enumerate, score, and select views for a workload within the budget
    * (budget in estimated edges — the paper's budget is a share of memory,
    * which is proportional).
    *
    * Optional `queryWeights` mirror the paper's extension for weighting
    * queries by frequency/expense.
    */
  def select(
      workload: Seq[QueryGraph],
      schema: GraphSchema,
      stats: GraphStats,
      budgetEdges: Long,
      queryWeights: Option[Seq[Double]] = None,
  ): Seq[ScoredView] = {
    val weights = queryWeights.getOrElse(Seq.fill(workload.size)(1.0))
    require(weights.size == workload.size, "one weight per query required")

    // Each query is enumerated and rewritten once; a view applies to a query
    // it was derived for, and a k-hop connector through its rewriting.
    val derived = workload.map(q => ViewEnumerator.enumerate(q, schema))
    val candidates: Seq[CandidateView] =
      derived.flatten.groupBy(_.key).map(_._2.head).toSeq.sortBy(_.key)
    val perQuery = workload.zip(derived).zip(weights).map { case ((q, views), w) =>
      val rewritings = QueryRewriter.rewritings(q, schema, stats, candidates).map(r => r.view.key -> r).toMap
      (views.map(_.key).toSet, rewritings, w)
    }

    val scored = candidates.map { v =>
      val improvement = perQuery
        .map { case (keys, rewritings, w) => w * v.improvement(keys(v.key), rewritings.get(v.key), stats, schema) }
        .sum
      ScoredView(v, v.estimatedSize(stats, schema), CostModel.creationCost(v, stats, schema), improvement)
    }.filter(_.improvement > 0)

    val items = scored.map(s => Knapsack.Item(math.max(0L, math.round(s.size)), s.value)).toIndexedSeq
    val (_, chosen) = Knapsack.solve(items, budgetEdges)
    chosen.map(scored).sortBy(-_.value)
  }
}
