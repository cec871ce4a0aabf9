package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cypher.CypherParser
import repro.graph.{GraphSchema, GraphStats, TypeStats}

class QueryRewriterSpec extends AnyFunSuite {

  private val blastRadius = CypherParser.parse(
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin)

  private val stats = GraphStats(
    vertexCount = 900,
    edgeCount = 3000,
    perType = Seq(
      TypeStats("Job", 100, 4.0, 7.0, 8.0, 12.0),
      TypeStats("File", 800, 2.0, 3.0, 3.0, 6.0)),
    edgeTypeCounts = Map("WRITES_TO" -> 800, "IS_READ_BY" -> 2200))

  private val schema = GraphSchema.provSummarized
  private val v2 = KHopConnectorView("Job", "Job", 2)

  test("the 2-hop connector applies and halves the hop budget (Lst. 4)") {
    val rw = QueryRewriter.rewrite(blastRadius, schema, stats, Seq(v2),
      Map(v2.key -> 300L))
    assert(rw.isDefined)
    assert(rw.get.view == v2)
    assert(rw.get.hopsLo == 1)
    assert(rw.get.hopsHi == 5) // edge-level k in 2..10 -> connector hops 1..5
  }

  test("rewritten Cypher resembles the paper's Lst. 4") {
    val rw = QueryRewriter.rewrite(blastRadius, schema, stats, Seq(v2), Map(v2.key -> 300L)).get
    val cypher = rw.toCypher("q_j1", "q_j2")
    assert(cypher.contains("2_HOP_JOB_TO_JOB"))
    assert(cypher.contains("*1..5"))
    assert(cypher.contains("(q_j1:Job)"))
  }

  test("no materialized views -> no rewriting") {
    assert(QueryRewriter.rewrite(blastRadius, schema, stats, Nil).isEmpty)
  }

  test("a view of the wrong type pair does not apply") {
    val wrong = KHopConnectorView("File", "Job", 2)
    assert(QueryRewriter.rewrite(blastRadius, schema, stats, Seq(wrong)).isEmpty)
  }

  test("an odd-k view never applies on the bipartite schema") {
    val wrong = KHopConnectorView("Job", "Job", 3)
    assert(QueryRewriter.rewrite(blastRadius, schema, stats, Seq(wrong)).isEmpty)
  }

  test("picks the cheapest applicable view among several") {
    val v4 = KHopConnectorView("Job", "Job", 4)
    // Give the 4-hop connector a much larger materialized size so the 2-hop
    // one wins on estimated cost.
    val rw = QueryRewriter.rewrite(blastRadius, schema, stats, Seq(v2, v4),
      Map(v2.key -> 200L, v4.key -> 2000000L))
    assert(rw.isDefined)
    assert(rw.get.view == v2)
  }

  test("estimated speedup is positive and >= 1 for an accepted rewriting") {
    val rw = QueryRewriter.rewrite(blastRadius, schema, stats, Seq(v2), Map(v2.key -> 300L)).get
    assert(rw.estimatedSpeedup >= 1.0)
  }

  test("summarizer views are not used for traversal rewritings") {
    val summ = VertexInclusionSummarizerView(Seq("Job", "File"))
    assert(QueryRewriter.rewrite(blastRadius, schema, stats, Seq(summ)).isEmpty)
  }

  test("rewriting of an exact 2-hop pattern over the 2-hop view is a single hop") {
    val q = CypherParser.parse(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")
    val rw = QueryRewriter.rewrite(q, schema, stats, Seq(v2), Map(v2.key -> 300L))
    assert(rw.isDefined)
    assert(rw.get.hopsLo == 1 && rw.get.hopsHi == 1)
  }

  // An equivalent rewriting derives exactly the query's path lengths: the
  // blast radius has Job→Job lengths {2, 4, 6, 8, 10}, and [*1..8] on the
  // homogeneous schema has {1, ..., 8}.
  private val homogeneous = GraphSchema.homogeneous()
  private val homStats = GraphStats(1000L, 15136L,
    Seq(TypeStats("Node", 1000L, 10.0, 25.1, 37.05, 549.0)), Map("LINK" -> 15136L))
  private val upTo8 = CypherParser.parse("MATCH (a:Node)-[r*1..8]->(b:Node) RETURN a, b")

  for ((name, q, sch, st, view, hops) <- Seq(
      ("blast radius over a 4-hop view is declined", blastRadius, schema, stats,
        KHopConnectorView("Job", "Job", 4), None),
      ("blast radius over a 6-hop view is declined", blastRadius, schema, stats,
        KHopConnectorView("Job", "Job", 6), None),
      ("blast radius over the 2-hop view gives *1..5", blastRadius, schema, stats, v2, Some((1, 5))),
      ("[*1..8] over a 2-hop view is declined", upTo8, homogeneous, homStats,
        KHopConnectorView("Node", "Node", 2), None),
      ("[*1..8] over a 1-hop view gives *1..8", upTo8, homogeneous, homStats,
        KHopConnectorView("Node", "Node", 1), Some((1, 8))),
      ("[*1..12] is declined: lengths past the enumerator's cap are not derived",
        CypherParser.parse("MATCH (a:Node)-[r*1..12]->(b:Node) RETURN a, b"), homogeneous, homStats,
        KHopConnectorView("Node", "Node", 1), None),
    ))
    test(s"equivalent rewritings only: $name") {
      val rw = QueryRewriter.rewritings(q, ViewEnumerator.kHopInstantiations(q, sch), sch, st, Seq(view))
      assert(rw.map(r => (r.hopsLo, r.hopsHi)) == hops.toSeq)
    }
}
