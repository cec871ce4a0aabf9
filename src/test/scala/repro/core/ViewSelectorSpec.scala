package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cypher.CypherParser
import repro.graph.{GraphSchema, GraphStats, TypeStats}

class ViewSelectorSpec extends AnyFunSuite {

  private val blastRadius = CypherParser.parse(
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin)

  private val twoHop = CypherParser.parse(
    "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")

  private val stats = GraphStats(
    vertexCount = 900,
    edgeCount = 3000,
    perType = Seq(
      TypeStats("Job", 100, 2.0, 3.0, 3.0, 5.0),
      TypeStats("File", 800, 1.0, 2.0, 2.0, 4.0)),
    edgeTypeCounts = Map("WRITES_TO" -> 800, "IS_READ_BY" -> 2200))

  private val schema = GraphSchema.provSummarized

  test("selection under a generous budget picks at least one connector") {
    val selected = ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, budgetEdges = 10_000_000L)
    assert(selected.nonEmpty)
    assert(selected.exists(_.view.isInstanceOf[KHopConnectorView]))
  }

  test("every selected view has positive improvement") {
    val selected = ViewSelector.select(Seq(blastRadius), schema, stats, budgetEdges = 10_000_000L)
    assert(selected.forall(_.improvement > 0))
  }

  test("selected views respect the space budget") {
    val budget = 5000L
    val selected = ViewSelector.select(Seq(blastRadius), schema, stats, budget)
    assert(selected.map(s => math.round(s.size)).sum <= budget)
  }

  test("zero budget selects only zero-size candidates (i.e. none)") {
    val selected = ViewSelector.select(Seq(blastRadius), schema, stats, 0L)
    assert(selected.forall(_.size < 1))
  }

  test("a view serving two queries scores at least one query's improvement") {
    val both = ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 10_000_000L)
    val single = ViewSelector.select(Seq(twoHop), schema, stats, 10_000_000L)
    def improvementOf(sel: Seq[ViewSelector.ScoredView], k: Int): Option[Double] =
      sel.collectFirst { case s if s.view == KHopConnectorView("Job", "Job", k) => s.improvement }
    (improvementOf(both, 2), improvementOf(single, 2)) match {
      case (Some(b), Some(s)) => assert(b >= s - 1e-9)
      case _                  => fail("2-hop connector not selected in one of the runs")
    }
  }

  test("query weights scale improvements") {
    val unweighted = ViewSelector.select(Seq(twoHop), schema, stats, 10_000_000L)
    val weighted = ViewSelector.select(Seq(twoHop), schema, stats, 10_000_000L,
      queryWeights = Some(Seq(3.0)))
    val u = unweighted.find(_.view == KHopConnectorView("Job", "Job", 2)).map(_.improvement)
    val w = weighted.find(_.view == KHopConnectorView("Job", "Job", 2)).map(_.improvement)
    assert(u.isDefined && w.isDefined)
    assert(math.abs(w.get - 3.0 * u.get) < 1e-6)
  }

  test("weight list length must match the workload") {
    assertThrows[IllegalArgumentException](
      ViewSelector.select(Seq(twoHop), schema, stats, 100L, queryWeights = Some(Seq(1.0, 2.0))))
  }

  test("results are sorted by knapsack value, best first") {
    val selected = ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 10_000_000L)
    val values = selected.map(_.value)
    assert(values == values.sortBy(-_))
  }

  // Selection output, pinned. A view scores only through a rewriting that
  // reads it, so the summarizers and the other connectors, which no
  // rewriting reads, are not selected however large the budget.
  private def picked(sel: Seq[ViewSelector.ScoredView]): Seq[(String, Double, Double)] =
    sel.map(s => (s.view.key, s.size, s.improvement))

  test("pinned selection: blast radius + two-hop, 7 view edges per base edge") {
    assert(picked(ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 7L * stats.edgeCount)) == Seq(
      ("kHopConnector(Job,Job,2)", 4100.0, 0.3543407701108907)))
  }

  test("pinned selection: blast radius + two-hop, generous budget") {
    assert(picked(ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 10_000_000L)) == Seq(
      ("kHopConnector(Job,Job,2)", 4100.0, 0.3543407701108907)))
  }

  private val homStats = GraphStats(1000L, 15136L,
    Seq(TypeStats("Node", 1000L, 10.0, 25.1, 37.05, 549.0)), Map("LINK" -> 15136L))

  private val homWorkload = Seq(
    "MATCH (a:Node)-[r*1..4]->(b:Node) RETURN a, b",
    "MATCH (a:Node)-[r*1..8]->(b:Node) RETURN a, b",
    "MATCH (a:Node)-[:LINK]->(b:Node), (b:Node)-[r*0..3]->(c:Node) RETURN a, c").map(CypherParser.parse)

  test("pinned selection: homogeneous workload") {
    val selected = ViewSelector.select(homWorkload, GraphSchema.homogeneous(), homStats, 7L * homStats.edgeCount)
    assert(picked(selected) == Seq(
      ("kHopConnector(Node,Node,1)", 37050.0, 0.05884669439425538)))
  }

  /** Statistics for a schema: 100 vertices per type, 300 edges per edge type. */
  private def uniformStats(s: GraphSchema): GraphStats =
    GraphStats(100L * s.vertexTypes.size, 300L * s.edgeTypes.size,
      s.vertexTypes.map(t => TypeStats(t, 100L, 2.0, 4.0, 5.0, 12.0)), s.edgeTypes.map(_ -> 300L).toMap)

  test("every selected view is read by a rewriting of a workload query, on every built-in schema") {
    def parse(qs: String*) = qs.map(CypherParser.parse)
    val workloads = Seq(
      GraphSchema.provRaw -> parse(
        """MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[r*0..4]->(g:File), (g:File)-[:IS_READ_BY]->(b:Job)
          |RETURN a, b""".stripMargin,
        "MATCH (j:Job)-[:SPAWNS]->(t:Task), (t:Task)-[r*0..3]->(u:Task), (u:Task)-[:RUNS_ON]->(m:Machine) RETURN j, m",
        "MATCH (t:Task)-[r*1..4]->(u:Task) RETURN t, u"),
      GraphSchema.provSummarized -> Seq(blastRadius, twoHop, CypherParser.parse(
        "MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a, b")),
      GraphSchema.dblpRaw -> parse(
        "MATCH (a:Author)-[:WROTE]->(p:Publication), (p:Publication)-[:PUBLISHED_IN]->(v:Venue) RETURN a, v",
        "MATCH (a:Author)-[:WROTE]->(p:Publication)-[:WRITTEN_BY]->(b:Author) RETURN a, b"),
      GraphSchema.dblpSummarized -> parse(
        "MATCH (a:Author)-[:WROTE]->(p:Publication)-[:WRITTEN_BY]->(b:Author) RETURN a, b",
        "MATCH (a:Author)-[r*1..4]->(b:Author) RETURN a, b"),
      GraphSchema.homogeneous() -> homWorkload)
    workloads.foreach { case (s, workload) =>
      val stats = uniformStats(s)
      val selected = ViewSelector.select(workload, s, stats, 10_000_000L).map(_.view)
      assert(selected.nonEmpty, s.vertexTypes)
      val read = workload.flatMap(q =>
        QueryRewriter.rewritings(q, ViewEnumerator.kHopInstantiations(q, s), s, stats, selected).map(_.view))
        .toSet[CandidateView]
      assert(selected.filterNot(read) == Nil, s.vertexTypes)
    }
  }
}
