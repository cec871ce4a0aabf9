package repro.core

import repro.cypher.QueryGraph
import repro.graph.GraphSchema
import repro.prolog.{Database, Solver, Term}

/** Constraint-based, inference-based view enumeration (paper § IV, Fig. 4).
  *
  * Builds a Prolog database from (a) the prelude, (b) the constraint-mining
  * rule library, (c) the view templates, and (d) the explicit facts mined
  * from the query and schema — then evaluates each view template through the
  * inference engine and converts its instantiations into [[CandidateView]]s.
  * (a)–(c) are parsed once per JVM; each query's database is a copy of them
  * with only that query's facts consulted.
  */
object ViewEnumerator {

  /** Cap on connector length considered during enumeration, mirroring the
    * paper's "assuming an upper bound of k=10" (§ IV-B). Only applied as a
    * post-filter: the query constraints already bound K for bounded patterns.
    */
  val MaxConnectorHops = 10

  /** A k-hop connector template instantiation, (X, Y, XTYPE, YTYPE, K). */
  type KHopInstantiation = (String, String, String, String, Int)

  /** One query's enumeration: its candidate views and the k-hop connector
    * instantiations that the rewriter reads, from one solver.
    */
  final case class Enumeration(query: QueryGraph, candidates: Seq[CandidateView], kHops: Seq[KHopInstantiation])

  /** The prelude, view templates and mining rules. It is never extended:
    * [[buildDatabase]] adds a query's facts to a copy.
    */
  private lazy val library: Database = {
    val db = Database.withPrelude()
    db.consult(ViewTemplates.all)
    db.consult(MiningRules.all)
    db
  }

  /** The assembled rule+fact database for a (query, schema) pair — exposed
    * for tests that probe individual mining rules.
    */
  def buildDatabase(q: QueryGraph, schema: GraphSchema, extraFacts: String = ""): Database = {
    val db = library.copy()
    db.consult(ConstraintMiner.facts(q, schema))
    if (extraFacts.nonEmpty) db.consult(extraFacts)
    db
  }

  /** Distinct solutions of one template's goal, with every variable bound. */
  private def solve(solver: Solver, t: CandidateView.Template[CandidateView]): Seq[Map[String, Term]] =
    solver.query(t.goal).distinct.toList

  /** The k-hop connector template's solutions as sorted, distinct tuples. */
  private def kHops(solutions: Seq[Map[String, Term]], q: QueryGraph): Seq[KHopInstantiation] =
    solutions
      .flatMap(m => KHopConnectorView.template.instantiate(m, q).map(v =>
        (CandidateView.atomName(m("X")), CandidateView.atomName(m("Y")), v.srcType, v.dstType, v.k)))
      .distinct
      .sortBy(t => (t._1, t._2, t._5))

  /** Raw template instantiations for the k-hop connector template, as
    * (X, Y, XTYPE, YTYPE, K) tuples — the § IV-B output.
    */
  def kHopInstantiations(q: QueryGraph, schema: GraphSchema): Seq[KHopInstantiation] =
    kHops(solve(new Solver(buildDatabase(q, schema)), KHopConnectorView.template), q)

  /** Enumerate all candidate views for a query against a schema: every
    * template of the view library, through one solver.
    */
  def enumerate(q: QueryGraph, schema: GraphSchema): Seq[CandidateView] = enumeration(q, schema).candidates

  /** [[enumerate]], together with the [[kHopInstantiations]] of the same run. */
  def enumeration(q: QueryGraph, schema: GraphSchema): Enumeration =
    enumeration(q, new Solver(buildDatabase(q, schema)))

  /** [[enumeration]] through a given solver over `q`'s database. */
  private[core] def enumeration(q: QueryGraph, solver: Solver): Enumeration = {
    val solutions = CandidateView.templates.map(t => t -> solve(solver, t)).toMap
    val candidates = CandidateView.templates.flatMap(t => solutions(t).flatMap(t.instantiate(_, q)))
      .groupBy(_.key).map(_._2.head).toSeq
      .sortBy(_.key)
    Enumeration(q, candidates, kHops(solutions(KHopConnectorView.template), q))
  }
}
