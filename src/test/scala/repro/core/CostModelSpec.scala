package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cypher.CypherParser
import repro.graph.{GraphSchema, GraphStats, TypeStats}

class CostModelSpec extends AnyFunSuite {

  private val blastRadius = CypherParser.parse(
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin)

  private val provStats = GraphStats(
    vertexCount = 900,
    edgeCount = 3000,
    perType = Seq(
      TypeStats("Job", 100, 4.0, 7.0, 8.0, 12.0),
      TypeStats("File", 800, 2.0, 3.0, 3.0, 6.0)),
    edgeTypeCounts = Map("WRITES_TO" -> 800, "IS_READ_BY" -> 2200))

  test("hop budget counts fixed edges plus var-length uppers") {
    assert(CostModel.hopBudget(blastRadius) == 10)
  }

  test("anchor count uses the pattern's source-vertex type") {
    assert(CostModel.anchorCount(blastRadius, provStats) == 100.0)
  }

  test("traversal cost grows with hops and degree") {
    val c1 = CostModel.traversalCost(10, 2.0, 2)
    val c2 = CostModel.traversalCost(10, 2.0, 4)
    val c3 = CostModel.traversalCost(10, 3.0, 4)
    assert(c1 < c2 && c2 < c3)
  }

  test("traversal cost with sub-unit degree still visits anchors each hop") {
    assert(CostModel.traversalCost(10, 0.5, 3) > 10.0 * 3 * 0.9)
  }

  test("k-hop connector view size uses the α=95 heterogeneous estimator") {
    val v = KHopConnectorView("Job", "Job", 2)
    val expected = SizeEstimator.heterogeneous(provStats, GraphSchema.provSummarized, 2, 95)
    assert(v.estimatedSize(provStats, GraphSchema.provSummarized) == expected)
  }

  test("vertex-inclusion summarizer size sums kept edge types") {
    val v = VertexInclusionSummarizerView(Seq("Job", "File"))
    assert(v.estimatedSize(provStats, GraphSchema.provSummarized) == 3000.0)
    val jobOnly = VertexInclusionSummarizerView(Seq("Job"))
    assert(jobOnly.estimatedSize(provStats, GraphSchema.provSummarized) == 0.0)
  }

  test("edge-inclusion and removal summarizer sizes") {
    assert(EdgeInclusionSummarizerView(Seq("WRITES_TO"))
      .estimatedSize(provStats, GraphSchema.provSummarized) == 800.0)
    assert(EdgeRemovalSummarizerView("WRITES_TO")
      .estimatedSize(provStats, GraphSchema.provSummarized) == 2200.0)
  }

  test("vertex-removal summarizer drops incident edge types") {
    val rawStats = provStats.copy(edgeTypeCounts =
      provStats.edgeTypeCounts ++ Map("SPAWNS" -> 5000L, "TRANSFERS_TO" -> 4000L, "RUNS_ON" -> 5000L))
    val v = VertexRemovalSummarizerView("Task")
    // Dropping tasks removes SPAWNS, TRANSFERS_TO and RUNS_ON edges.
    assert(v.estimatedSize(rawStats, GraphSchema.provRaw) == 3000.0)
  }

  test("query cost on a 2-hop connector view is below the raw cost") {
    val v = KHopConnectorView("Job", "Job", 2)
    val raw = CostModel.queryCostOnRaw(blastRadius, provStats)
    val view = CostModel.queryCostOnView(blastRadius, v, provStats, GraphSchema.provSummarized,
      materializedViewEdges = Some(300L))
    assert(view < raw)
  }

  test("creation cost is proportional to estimated size, floored at 1") {
    val v = KHopConnectorView("Job", "Job", 2)
    assert(CostModel.creationCost(v, provStats, GraphSchema.provSummarized) ==
      v.estimatedSize(provStats, GraphSchema.provSummarized))
    val empty = VertexInclusionSummarizerView(Seq("Job"))
    assert(CostModel.creationCost(empty, provStats, GraphSchema.provSummarized) == 1.0)
  }
}
