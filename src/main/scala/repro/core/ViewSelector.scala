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
    * A view's improvement for a query is the estimated speedup of the
    * [[QueryRewriter.rewritings]] entry that reads it, and 0 when no
    * rewriting does: the benefit of a view (Harinarayan, Rajaraman & Ullman,
    * SIGMOD 1996), so only views that some plan reads are selected.
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
  ): Seq[ScoredView] =
    selectEnumerated(workload.map(ViewEnumerator.enumeration(_, schema)), schema, stats, budgetEdges, queryWeights)

  /** [[select]] over queries already enumerated: each query is rewritten
    * from the k-hop instantiations of its own enumeration.
    */
  private[core] def selectEnumerated(
      enumerations: Seq[ViewEnumerator.Enumeration],
      schema: GraphSchema,
      stats: GraphStats,
      budgetEdges: Long,
      queryWeights: Option[Seq[Double]],
  ): Seq[ScoredView] = {
    val weights = queryWeights.getOrElse(Seq.fill(enumerations.size)(1.0))
    require(weights.size == enumerations.size, "one weight per query required")

    val candidates = enumerations.flatMap(_.candidates)
      .groupBy(_.key).map(_._2.head).toSeq.sortBy(_.key)
    val improvements = enumerations.zip(weights)
      .flatMap { case (e, w) =>
        QueryRewriter.rewritings(e.query, e.kHops, schema, stats, candidates)
          .map(r => r.view.key -> w * r.estimatedSpeedup)
      }
      .groupMapReduce(_._1)(_._2)(_ + _)

    val scored = candidates.flatMap { v =>
      improvements.get(v.key).map(ScoredView(v, v.estimatedSize(stats, schema),
        CostModel.creationCost(v, stats, schema), _))
    }.filter(_.improvement > 0)

    val items = scored.map(s => Knapsack.Item(math.max(0L, math.round(s.size)), s.value)).toIndexedSeq
    val (_, chosen) = Knapsack.solve(items, budgetEdges)
    chosen.map(scored).sortBy(-_.value)
  }
}
