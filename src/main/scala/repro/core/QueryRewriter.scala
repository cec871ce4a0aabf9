package repro.core

import repro.cypher.QueryGraph
import repro.graph.{GraphSchema, GraphStats}

/** The chosen rewriting of a query over a materialized connector view
  * (paper § V-C, Lst. 4): traverse `view.label` edges with a hop budget of
  * `[hopsLo, hopsHi]` instead of the original edge-level pattern.
  */
final case class Rewriting(
    view: KHopConnectorView,
    hopsLo: Int,
    hopsHi: Int,
    costOriginal: Double,
    costRewritten: Double,
) {
  def estimatedSpeedup: Double = costOriginal / math.max(costRewritten, 1e-9)

  /** The rewritten query in Cypher, shaped like the paper's Lst. 4. */
  def toCypher(srcVar: String = "x", dstVar: String = "y"): String =
    s"MATCH ($srcVar:${view.srcType}) -[:${view.label}*$hopsLo..$hopsHi]-> ($dstVar:${view.dstType}) " +
      s"RETURN $srcVar, $dstVar"
}

/** View-based query rewriting (paper § V-C): given a query and the set of
  * materialized views, pick the single view whose rewriting has the lowest
  * estimated evaluation cost (Kaskade rewrites over one view at a time).
  */
object QueryRewriter {

  /** All valid rewritings of `q` over the materialized views. A k-hop
    * connector (srcType → dstType) contracts path lengths [kMin, kMax] to
    * [kMin/k, kMax/k] view hops, and applies only if that rewriting is
    * equivalent (Halevy, VLDB J. 2001): the lengths derived for `q` between
    * those types are exactly {k·j : kMin/k ≤ j ≤ kMax/k}. No length past
    * [[ViewEnumerator.MaxConnectorHops]] is derived, so a query whose hop
    * budget passes it gets no rewriting. `insts` are the k-hop
    * instantiations derived for `q` ([[ViewEnumerator.kHopInstantiations]]).
    */
  def rewritings(
      q: QueryGraph,
      insts: Seq[ViewEnumerator.KHopInstantiation],
      schema: GraphSchema,
      stats: GraphStats,
      materialized: Seq[CandidateView],
      materializedSizes: Map[String, Long] = Map.empty,
  ): Seq[Rewriting] = {
    val costRaw = CostModel.queryCostOnRaw(q, stats)
    val allLengths = CostModel.hopBudget(q) <= ViewEnumerator.MaxConnectorHops

    materialized.collect { case v: KHopConnectorView =>
      val ks = insts.collect {
        case (_, _, st, dt, k) if st == v.srcType && dt == v.dstType => k
      }.toSet
      val hops = math.max(1, ks.minOption.getOrElse(0) / v.k) to ks.maxOption.getOrElse(0) / v.k
      Option.when(allLengths && hops.nonEmpty && hops.map(_ * v.k).toSet == ks) {
        val costView =
          CostModel.queryCostOnView(q, v, stats, schema, materializedSizes.get(v.key))
        Rewriting(v, hops.head, hops.last, costRaw, costView)
      }
    }.flatten
  }

  /** The best rewriting (lowest estimated cost), if any view applies and
    * actually improves on the raw plan. `q`'s k-hop instantiations come from
    * [[ViewEnumerator.enumeration]], so the solver runs only for a pattern
    * shape not planned before on `schema`, whatever its variable names.
    */
  def rewrite(
      q: QueryGraph,
      schema: GraphSchema,
      stats: GraphStats,
      materialized: Seq[CandidateView],
      materializedSizes: Map[String, Long] = Map.empty,
  ): Option[Rewriting] =
    rewritings(q, ViewEnumerator.kHopInstantiations(q, schema), schema, stats, materialized, materializedSizes)
      .filter(r => r.costRewritten <= r.costOriginal)
      .minByOption(_.costRewritten)
}
