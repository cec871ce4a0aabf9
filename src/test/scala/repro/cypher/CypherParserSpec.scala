package repro.cypher

import org.scalatest.funsuite.AnyFunSuite

class CypherParserSpec extends AnyFunSuite {

  /** The paper's Lst. 1 graph pattern (job blast radius). */
  val blastRadius: String =
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin

  test("parses the blast radius query's vertices and labels") {
    val qg = CypherParser.parse(blastRadius)
    assert(qg.vertexLabels == Map(
      "q_j1" -> Some("Job"), "q_f1" -> Some("File"),
      "q_f2" -> Some("File"), "q_j2" -> Some("Job")))
  }

  test("parses the blast radius query's fixed edges") {
    val qg = CypherParser.parse(blastRadius)
    assert(qg.edges == Seq(
      EdgePat("q_j1", "q_f1", Some("WRITES_TO")),
      EdgePat("q_f2", "q_j2", Some("IS_READ_BY"))))
  }

  test("parses the variable-length path with bounds") {
    val qg = CypherParser.parse(blastRadius)
    assert(qg.varPaths == Seq(VarLengthPat("q_f1", "q_f2", None, 0, 8)))
  }

  test("parses RETURN items with aliases") {
    val qg = CypherParser.parse(blastRadius)
    assert(qg.returns == Seq(ReturnItem("q_j1", Some("A")), ReturnItem("q_j2", Some("B"))))
    assert(qg.projected == Seq("q_j1", "q_j2"))
  }

  test("chained pattern in a single path expression") {
    val qg = CypherParser.parse(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")
    assert(qg.edges == Seq(
      EdgePat("a", "f", Some("WRITES_TO")), EdgePat("f", "b", Some("IS_READ_BY"))))
    assert(qg.returns.map(r => r.alias.getOrElse(r.variable)) == Seq("a", "b"))
  }

  test("node without label") {
    val qg = CypherParser.parse("MATCH (a)-[:R]->(b) RETURN a")
    assert(qg.vertexLabels("a").isEmpty && qg.vertexLabels("b").isEmpty)
  }

  test("edge without type") {
    val qg = CypherParser.parse("MATCH (a:X)-[e]->(b:Y) RETURN a")
    assert(qg.edges == Seq(EdgePat("a", "b", None)))
  }

  test("typed variable-length path") {
    val qg = CypherParser.parse("MATCH (a:Job)-[:DEPENDS*1..4]->(b:Job) RETURN a, b")
    assert(qg.varPaths == Seq(VarLengthPat("a", "b", Some("DEPENDS"), 1, 4)))
  }

  test("repeated node merges labels") {
    val qg = CypherParser.parse("MATCH (a)-[:R]->(b:Y), (a:X)-[:S]->(c:Z) RETURN a")
    assert(qg.vertexLabels("a").contains("X"))
  }

  test("conflicting labels rejected") {
    assertThrows[CypherParser.CypherError](
      CypherParser.parse("MATCH (a:X)-[:R]->(b), (a:Y)-[:S]->(c) RETURN a"))
  }

  test("RETURN of unknown vertex rejected") {
    assertThrows[CypherParser.CypherError](
      CypherParser.parse("MATCH (a:X)-[:R]->(b) RETURN zz"))
  }

  test("keywords are case-insensitive") {
    val qg = CypherParser.parse("match (a:X)-[:R]->(b:Y) return a As Q")
    assert(qg.returns == Seq(ReturnItem("a", Some("Q"))))
  }

  test("invalid hop bounds rejected") {
    assertThrows[IllegalArgumentException](
      CypherParser.parse("MATCH (a:X)-[r*5..2]->(b:Y) RETURN a"))
  }

  test("missing arrow rejected") {
    assertThrows[CypherParser.CypherError](
      CypherParser.parse("MATCH (a:X)-[:R](b:Y) RETURN a"))
  }

  test("degree helpers on the query graph") {
    val qg = CypherParser.parse(blastRadius)
    assert(qg.outDegree("q_j1") == 1 && qg.inDegree("q_j1") == 0)
    assert(qg.inDegree("q_j2") == 1 && qg.outDegree("q_j2") == 0)
    assert(qg.inDegree("q_f1") == 1 && qg.outDegree("q_f1") == 1)
  }

  test("query without RETURN yields empty projection") {
    val qg = CypherParser.parse("MATCH (a:X)-[:R]->(b:Y)")
    assert(qg.returns.isEmpty)
  }
}
