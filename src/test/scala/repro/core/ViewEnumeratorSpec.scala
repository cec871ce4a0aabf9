package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.{GraphSchema, SchemaEdge}
import repro.prolog.Solver

class ViewEnumeratorSpec extends AnyFunSuite {

  private val blastRadius = CypherParser.parse(
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin)

  test("reproduces the § IV-B instantiation list exactly: K = 2,4,6,8,10") {
    val insts = ViewEnumerator.kHopInstantiations(blastRadius, GraphSchema.provSummarized)
    assert(insts == Seq(2, 4, 6, 8, 10).map(k => ("q_j1", "q_j2", "Job", "Job", k)))
  }

  test("enumeration restricts endpoints to projected vertices") {
    val insts = ViewEnumerator.kHopInstantiations(blastRadius, GraphSchema.provSummarized)
    assert(insts.forall(i => i._1 == "q_j1" && i._2 == "q_j2"))
  }

  test("no odd-k connectors on the bipartite provenance schema") {
    val insts = ViewEnumerator.kHopInstantiations(blastRadius, GraphSchema.provSummarized)
    assert(insts.forall(_._5 % 2 == 0))
  }

  test("enumerate() yields the job-to-job k-hop connector views") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    val kHops = views.collect { case v: KHopConnectorView => v }
    assert(kHops.map(_.k).sorted == Seq(2, 4, 6, 8, 10))
    assert(kHops.forall(v => v.srcType == "Job" && v.dstType == "Job"))
  }

  test("the 2-hop connector view carries the paper's label (Lst. 4)") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    val v2 = views.collect { case v: KHopConnectorView if v.k == 2 => v }.head
    assert(v2.label == "2_HOP_JOB_TO_JOB")
    assert(v2.sameVertexType)
  }

  test("same-vertex-type variable-length connector enumerated for Job endpoints") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    assert(views.exists { case SameVertexTypeConnectorView("Job", _) => true; case _ => false })
  }

  test("source-to-sink connector: q_j1 is the pattern source, q_j2 the sink") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    assert(views.contains(SourceToSinkConnectorView("Job", "Job")))
  }

  test("vertex-inclusion summarizer keeps exactly the query's types") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provRaw)
    val incl = views.collect { case v: VertexInclusionSummarizerView => v }
    assert(incl.map(_.vtypes.sorted) == Seq(Seq("File", "Job")))
  }

  test("vertex-removal summarizers propose the types the query does not touch") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provRaw)
    val removed = views.collect { case VertexRemovalSummarizerView(t) => t }.toSet
    assert(removed == Set("Task", "Machine"))
  }

  test("edge-removal summarizers propose unused edge types") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provRaw)
    val removed = views.collect { case EdgeRemovalSummarizerView(t) => t }.toSet
    assert(removed == Set("SPAWNS", "TRANSFERS_TO", "RUNS_ON"))
  }

  test("on the summarized schema there is nothing to remove") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    assert(views.collect { case v: VertexRemovalSummarizerView => v }.isEmpty)
    assert(views.collect { case v: EdgeRemovalSummarizerView => v }.isEmpty)
  }

  test("edge-inclusion summarizer keeps the query's edge types") {
    val views = ViewEnumerator.enumerate(blastRadius, GraphSchema.provRaw)
    val incl = views.collect { case v: EdgeInclusionSummarizerView => v }
    assert(incl.map(_.etypes.sorted) == Seq(Seq("IS_READ_BY", "WRITES_TO")))
  }

  test("homogeneous schema admits every k in the var-length range") {
    val q = CypherParser.parse("MATCH (a:Node)-[r*1..4]->(b:Node) RETURN a, b")
    val insts = ViewEnumerator.kHopInstantiations(q, GraphSchema.homogeneous())
    assert(insts.map(_._5) == Seq(1, 2, 3, 4))
  }

  test("a query without var-length paths yields only the fixed-length connector") {
    val q = CypherParser.parse(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")
    val insts = ViewEnumerator.kHopInstantiations(q, GraphSchema.provSummarized)
    assert(insts == Seq(("a", "b", "Job", "Job", 2)))
  }

  test("no connector candidates when endpoint types cannot be connected") {
    // Machine never reaches Job in the raw schema.
    val schema = GraphSchema(
      Seq("A", "B"),
      Seq(SchemaEdge("A", "B", "AB"))) // no path B -> A
    val q = CypherParser.parse("MATCH (x:B)-[r*1..4]->(y:A) RETURN x, y")
    assert(ViewEnumerator.kHopInstantiations(q, schema).isEmpty)
  }

  test("kHopConnector candidates capped at MaxConnectorHops") {
    val q = CypherParser.parse("MATCH (a:Node)-[r*1..40]->(b:Node) RETURN a, b")
    val insts = ViewEnumerator.kHopInstantiations(q, GraphSchema.homogeneous())
    assert(insts.nonEmpty)
    assert(insts.map(_._5).max <= ViewEnumerator.MaxConnectorHops)
  }

  test("enumeration search space: candidates well below the M^k walk space") {
    // With M=2 schema edges and k up to 10, unconstrained schema walks allow
    // 2^10 combinations; constraint injection leaves only the 5 feasible
    // connector views (§ IV-A2's pruning claim).
    val insts = ViewEnumerator.kHopInstantiations(blastRadius, GraphSchema.provSummarized)
    assert(insts.size == 5)
  }

  test("solver work for the § IV-B blast-radius enumeration, pinned") {
    // A count of work, not of time: a rule change that derives the same
    // solution again moves these numbers. With every existence check read as
    // call/1 instead of once/1, the same enumeration tries 4,017 clauses.
    val solver = new Solver(ViewEnumerator.buildDatabase(blastRadius, GraphSchema.provSummarized))
    ViewEnumerator.enumeration(blastRadius, solver)
    assert((solver.clausesTried, solver.maxDepthReached) == (994L, 12L))
    // Backtracks: the next clause after a head that does not unify, or a
    // clause or between/3 choicepoint resumed after a later goal failed.
    assert(solver.backtracks == 585L)
  }

  private def fresh(q: QueryGraph, schema: GraphSchema) =
    ViewEnumerator.enumeration(q, new Solver(ViewEnumerator.buildDatabase(q, schema)))

  test("enumeration returns the candidates and k-hop instantiations of separate runs") {
    val e = ViewEnumerator.enumeration(blastRadius, GraphSchema.provSummarized)
    val run = fresh(blastRadius, GraphSchema.provSummarized)
    assert(e.candidates == run.candidates)
    assert(e.kHops == run.kHops)
  }

  test("no query's facts, nor extra facts, reach a later query's database") {
    val other = CypherParser.parse("MATCH (t:Task)-[r*1..3]->(u:Task) RETURN t, u")
    val before = ViewEnumerator.enumerate(blastRadius, GraphSchema.provSummarized)
    val first = new Solver(ViewEnumerator.buildDatabase(other, GraphSchema.provRaw, "property(bytes, t, 10)."))
    assert(first.succeeds("queryVertex(t)") && first.succeeds("property(bytes, t, 10)"))
    assert(ViewEnumerator.enumerate(other, GraphSchema.provRaw).nonEmpty)

    val later = ViewEnumerator.buildDatabase(blastRadius, GraphSchema.provSummarized)
    val s = new Solver(later)
    assert(!s.succeeds("queryVertex(t)"))
    assert(!s.succeeds("property(_, _, _)"))
    assert(!s.succeeds("schemaVertex('Task')"))
    assert(s.query("queryVertex(X)", "X").map(_("X").show).toSet == Set("q_j1", "q_f1", "q_f2", "q_j2"))
    assert(later.size == ViewEnumerator.buildDatabase(blastRadius, GraphSchema.provSummarized).size)
    assert(fresh(blastRadius, GraphSchema.provSummarized).candidates == before)
  }

  test("cypher translation of a 2-hop connector mentions both types") {
    val v = KHopConnectorView("Job", "Job", 2)
    assert(v.toCypher.contains("(x:Job)"))
    assert(v.toCypher.contains("*2..2"))
    assert(v.toCypher.contains("2_HOP_JOB_TO_JOB"))
  }

  test("dblp schema: author-to-author 2-hop connector enumerated") {
    val q = CypherParser.parse(
      """MATCH (a1:Author)-[:WROTE]->(p:Publication),
        |      (p:Publication)-[:WRITTEN_BY]->(a2:Author)
        |RETURN a1, a2""".stripMargin)
    val views = ViewEnumerator.enumerate(q, GraphSchema.dblpSummarized)
    assert(views.exists { case KHopConnectorView("Author", "Author", 2) => true; case _ => false })
  }
}
