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

  // Selection output, pinned to what selection gave when it re-ran the solver
  // for every (query, candidate) pair; it now enumerates and rewrites each
  // query once.
  private def picked(sel: Seq[ViewSelector.ScoredView]): Seq[(String, Double, Double)] =
    sel.map(s => (s.view.key, s.size, s.improvement))

  test("pinned selection: blast radius + two-hop, 7 view edges per base edge") {
    assert(picked(ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 7L * stats.edgeCount)) == Seq(
      ("summarizerEdgeInclusion(IS_READ_BY,WRITES_TO)", 3000.0, 2.0),
      ("summarizerVertexInclusion(File,Job)", 3000.0, 2.0),
      ("kHopConnector(Job,Job,2)", 4100.0, 0.3543407701108907),
      ("sourceToSinkConnector(Job,Job)", 10000.0, 0.6)))
  }

  test("pinned selection: blast radius + two-hop, generous budget") {
    // The 4-, 6-, 8- and 10-hop connectors were picked here too while the
    // rewriter accepted rewritings of the blast radius that drop path lengths.
    assert(picked(ViewSelector.select(Seq(blastRadius, twoHop), schema, stats, 10_000_000L)) == Seq(
      ("summarizerEdgeInclusion(IS_READ_BY,WRITES_TO)", 3000.0, 2.0),
      ("summarizerVertexInclusion(File,Job)", 3000.0, 2.0),
      ("kHopConnector(Job,Job,2)", 4100.0, 0.3543407701108907),
      ("sourceToSinkConnector(Job,Job)", 10000.0, 0.6),
      ("connectorSameVertexType(Job)", 20900.0, 0.28708133971291866)))
  }

  test("pinned selection: homogeneous workload") {
    val homStats = GraphStats(1000L, 15136L,
      Seq(TypeStats("Node", 1000L, 10.0, 25.1, 37.05, 549.0)), Map("LINK" -> 15136L))
    val workload = Seq(
      "MATCH (a:Node)-[r*1..4]->(b:Node) RETURN a, b",
      "MATCH (a:Node)-[r*1..8]->(b:Node) RETURN a, b",
      "MATCH (a:Node)-[:LINK]->(b:Node), (b:Node)-[r*0..3]->(c:Node) RETURN a, c").map(CypherParser.parse)
    val selected = ViewSelector.select(workload, GraphSchema.homogeneous(), homStats, 7L * homStats.edgeCount)
    assert(picked(selected) == Seq(
      ("sameEdgeTypeConnector(Node,Node,LINK)", 15136.0, 3.0),
      ("summarizerVertexInclusion(Node)", 15136.0, 3.0),
      ("summarizerEdgeInclusion(LINK)", 15136.0, 1.0),
      ("kHopConnector(Node,Node,1)", 37050.0, 0.05884669439425538)))
  }
}
