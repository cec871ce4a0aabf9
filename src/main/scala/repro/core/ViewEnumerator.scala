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
  *
  * Enumerations are memoized per (schema, canonical pattern), so a workload
  * that repeats a pattern, under any variable names, runs the solver once for
  * it. The rule library is fixed per JVM, so no entry ever goes stale.
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

  /** The k-hop connector template's solutions as distinct tuples, sorted by
    * (X, Y, K) and then by type.
    */
  private def kHops(solutions: Seq[Map[String, Term]], q: QueryGraph): Seq[KHopInstantiation] =
    sortKHops(solutions.flatMap(m => KHopConnectorView.template.instantiate(m, q).map(v =>
      (CandidateView.atomName(m("X")), CandidateView.atomName(m("Y")), v.srcType, v.dstType, v.k))).distinct)

  private def sortKHops(ts: Seq[KHopInstantiation]): Seq[KHopInstantiation] =
    ts.sortBy(t => (t._1, t._2, t._5, t._3, t._4))

  /** Raw template instantiations for the k-hop connector template, as
    * (X, Y, XTYPE, YTYPE, K) tuples — the § IV-B output.
    */
  def kHopInstantiations(q: QueryGraph, schema: GraphSchema): Seq[KHopInstantiation] = enumeration(q, schema).kHops

  /** Enumerate all candidate views for a query against a schema: every
    * template of the view library, through one solver.
    */
  def enumerate(q: QueryGraph, schema: GraphSchema): Seq[CandidateView] = enumeration(q, schema).candidates

  /** [[enumerate]], together with the [[kHopInstantiations]] of the same run,
    * read from the memo when `q`'s shape was enumerated on `schema` before.
    */
  def enumeration(q: QueryGraph, schema: GraphSchema): Enumeration = {
    val (shape, names) = canonical(q)
    val key = (schema, shape)
    val e = memo.synchronized {
      val hit = Option(memo.get(key))
      if (hit.isDefined) hits += 1 else misses += 1
      hit
    }.getOrElse {
      val fresh = enumeration(shape, new Solver(buildDatabase(shape, schema)))
      memo.synchronized(memo.put(key, fresh))
      fresh
    }
    val callerName = names.map(_.swap)
    Enumeration(q, e.candidates, sortKHops(e.kHops.map(t => t.copy(_1 = callerName(t._1), _2 = callerName(t._2)))))
  }

  /** [[enumeration]] through a given solver over `q`'s database, past the memo. */
  private[core] def enumeration(q: QueryGraph, solver: Solver): Enumeration = {
    val solutions = CandidateView.templates.map(t => t -> solve(solver, t)).toMap
    val candidates = CandidateView.templates.flatMap(t => solutions(t).flatMap(t.instantiate(_, q)))
      .groupBy(_.key).map(_._2.head).toSeq
      .sortBy(_.key)
    Enumeration(q, candidates, kHops(solutions(KHopConnectorView.template), q))
  }

  /** `q` with its variables renamed `v0, v1, …` in order of first appearance
    * (fixed edges, variable-length paths, returns, then any other vertex by
    * name) and its return aliases dropped, with that renaming. Enumeration
    * reads no alias, and no template or rule it calls compares query-vertex
    * names other than for equality, so the two enumerate alike up to names.
    */
  private def canonical(q: QueryGraph): (QueryGraph, Map[String, String]) = {
    val order = (q.edges.flatMap(e => Seq(e.src, e.dst)) ++ q.varPaths.flatMap(p => Seq(p.src, p.dst)) ++
      q.projected ++ q.vertexNames).distinct
    val names = order.zipWithIndex.map { case (v, i) => v -> s"v$i" }.toMap
    val shape = q.renamed(names)
    (shape.copy(returns = shape.returns.map(_.copy(alias = None))), names)
  }

  /** Most shapes the memo holds; past it, the least recently used goes. */
  val MemoCapacity = 4096

  private val memo = new java.util.LinkedHashMap[(GraphSchema, QueryGraph), Enumeration](16, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[(GraphSchema, QueryGraph), Enumeration]): Boolean =
      size > MemoCapacity
  }
  private var hits, misses = 0L

  /** Memo lookups since the JVM started: those answered from it, and those
    * that ran the solver.
    */
  final case class MemoCounts(hits: Long, misses: Long)

  def memoCounts: MemoCounts = memo.synchronized(MemoCounts(hits, misses))
}
