package repro.engine

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.KHopConnectorView
import repro.graph.{GraphGen, PropertyGraph}

/** Q1–Q8 (Table IV): correctness against the DuckDB oracle and, crucially,
  * equivalence of each query over the raw graph vs. rewritten over the 2-hop
  * connector view with half the hop budget (§ VII-C).
  */
class QueriesSpec extends SparkSpec {

  private lazy val prov = GraphGen.provSummarized(spark, nJobs = 48).cache()
  private lazy val view = KHopConnectorView("Job", "Job", 2).build(prov).cache()

  // ---- Q1 ------------------------------------------------------------------

  test("Q1 blast radius matches the recursive-CTE oracle") {
    val result = Queries.q1BlastRadius(prov, "Job", maxHops = 4)
    Oracle.assertEquivalent(
      result,
      """WITH RECURSIVE reach(root, v, d) AS (
        |  SELECT id, id, 0 FROM jobs
        |  UNION
        |  SELECT r.root, e.dst, r.d + 1 FROM reach r JOIN e ON r.v = e.src WHERE r.d < 4
        |),
        |pairs AS (SELECT DISTINCT root, v FROM reach WHERE root <> v),
        |jmeta AS (SELECT id, CAST(cpu AS DOUBLE) AS cpu, grp FROM vmeta WHERE vtype = 'Job'),
        |perroot AS (
        |  SELECT p.root, SUM(j.cpu) AS t_cpu FROM pairs p JOIN jmeta j ON p.v = j.id GROUP BY p.root
        |)
        |SELECT j.grp AS grp, AVG(pr.t_cpu) AS avg_cpu
        |FROM perroot pr JOIN jmeta j ON pr.root = j.id GROUP BY j.grp""".stripMargin,
      "e" -> prov.edges.select("src", "dst"),
      "jobs" -> prov.verticesOfType("Job").select("id"),
      "vmeta" -> prov.vertices)
  }

  test("Q1 over the 2-hop connector view equals Q1 over the raw graph") {
    val raw = Queries.q1BlastRadius(prov, "Job", maxHops = 8)
    val rewritten = Queries.q1BlastRadius(view, "Job", maxHops = 4)
    assert(raw.exceptAll(rewritten).count() == 0)
    assert(rewritten.exceptAll(raw).count() == 0)
  }

  // ---- Q2 / Q3 -------------------------------------------------------------

  test("Q2 ancestors matches the reversed recursive-CTE oracle") {
    val result = Queries.q2Ancestors(prov, "Job", maxHops = 4)
    Oracle.assertEquivalent(
      result,
      """WITH RECURSIVE reach(root, v, d) AS (
        |  SELECT id, id, 0 FROM jobs
        |  UNION
        |  SELECT r.root, e.src, r.d + 1 FROM reach r JOIN e ON r.v = e.dst WHERE r.d < 4
        |)
        |SELECT DISTINCT r.root AS root, r.v AS v FROM reach r
        |JOIN jobs j ON r.v = j.id WHERE r.root <> r.v""".stripMargin,
      "e" -> prov.edges.select("src", "dst"),
      "jobs" -> prov.verticesOfType("Job").select("id"))
  }

  test("Q2 over the view equals Q2 over the raw graph") {
    val raw = Queries.q2Ancestors(prov, "Job", maxHops = 4)
    val rewritten = Queries.q2Ancestors(view, "Job", maxHops = 2)
    assert(raw.exceptAll(rewritten).count() == 0)
    assert(rewritten.exceptAll(raw).count() == 0)
  }

  test("Q3 descendants over the view equals the raw graph") {
    val raw = Queries.q3Descendants(prov, "Job", maxHops = 4)
    val rewritten = Queries.q3Descendants(view, "Job", maxHops = 2)
    assert(raw.exceptAll(rewritten).count() == 0)
    assert(rewritten.exceptAll(raw).count() == 0)
  }

  test("Q2 and Q3 are transposes of each other") {
    val anc = Queries.q2Ancestors(prov, "Job", maxHops = 4)
      .select(col("root").as("a"), col("v").as("b"))
    val desc = Queries.q3Descendants(prov, "Job", maxHops = 4)
      .select(col("v").as("a"), col("root").as("b"))
    assert(anc.exceptAll(desc).count() == 0)
    assert(desc.exceptAll(anc).count() == 0)
  }

  // ---- Q4 ------------------------------------------------------------------

  private lazy val q4Source: Long =
    prov.verticesOfType("Job").select(min("id")).collect()(0).getLong(0)

  test("Q4 path lengths matches the recursive-CTE oracle") {
    val result = Queries.q4PathLengths(prov, q4Source, maxHops = 4)
    Oracle.assertEquivalent(
      result,
      s"""WITH RECURSIVE walk(v, acc, d) AS (
         |  SELECT e.dst, CAST(e.ts AS BIGINT), 1 FROM e WHERE e.src = '$q4Source'
         |  UNION
         |  SELECT e.dst, GREATEST(w.acc, CAST(e.ts AS BIGINT)), w.d + 1
         |  FROM walk w JOIN e ON w.v = e.src WHERE w.d < 4
         |)
         |SELECT v AS v, MAX(acc) AS dist FROM walk WHERE v <> '$q4Source' GROUP BY v""".stripMargin,
      "e" -> prov.edges)
  }

  test("Q4 over the view equals the raw graph on job vertices") {
    val raw = Queries.q4PathLengths(prov, q4Source, maxHops = 4)
    val rewritten = Queries.q4PathLengths(view, q4Source, maxHops = 2)
    // Raw reaches files at odd depths too; the view sees only jobs.
    val jobs = prov.verticesOfType("Job").select(col("id").as("v"))
    val rawJobs = raw.join(jobs, Seq("v"), "left_semi")
    assert(rawJobs.exceptAll(rewritten).count() == 0)
    assert(rewritten.exceptAll(rawJobs).count() == 0)
  }

  // ---- Q5 / Q6 -------------------------------------------------------------

  test("Q5/Q6 need no rewriting and count the dataset at hand") {
    assert(Queries.q5EdgeCount(prov) == prov.edges.count())
    assert(Queries.q6VertexCount(prov) == prov.vertices.count())
    assert(Queries.q6VertexCount(view) == prov.verticesOfType("Job").count())
  }

  // ---- Q7 / Q8 -------------------------------------------------------------

  test("Q7 label propagation finds the two obvious communities") {
    // Two disjoint triangles.
    val g = PropertyGraph.of(
      spark,
      vertices = (0L to 5L).map(i => (i, "Node", 0.0, "g")),
      edges = Seq((0L, 1L, "E", 0L), (1L, 2L, "E", 0L), (2L, 0L, "E", 0L),
        (3L, 4L, "E", 0L), (4L, 5L, "E", 0L), (5L, 3L, "E", 0L)))
    val labels = Queries.q7CommunityDetection(g, iters = 5)
    val byLabel = labels.groupBy("label").count().collect()
    assert(byLabel.length == 2)
    assert(byLabel.forall(_.getLong(1) == 3))
    val communities = labels.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(communities(0L) == communities(1L) && communities(1L) == communities(2L))
    assert(communities(3L) == communities(4L) && communities(4L) == communities(5L))
    assert(communities(0L) != communities(3L))
  }

  test("Q7 is deterministic across runs") {
    val l1 = Queries.q7CommunityDetection(prov, iters = 4)
    val l2 = Queries.q7CommunityDetection(prov, iters = 4)
    assert(l1.exceptAll(l2).count() == 0)
    assert(l2.exceptAll(l1).count() == 0)
  }

  test("Q7 isolated vertices keep their own label") {
    val g = PropertyGraph.of(
      spark,
      vertices = Seq((0L, "Node", 0.0, "g"), (1L, "Node", 0.0, "g"), (9L, "Node", 0.0, "g")),
      edges = Seq((0L, 1L, "E", 0L)))
    val labels = Queries.q7CommunityDetection(g, iters = 3)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(labels(9L) == 9L)
    assert(labels(0L) == labels(1L))
  }

  test("Q8 largest community on a known partition") {
    // Triangle {0,1,2} plus edge {3,4}: largest community has 3 members.
    val g = PropertyGraph.of(
      spark,
      vertices = (0L to 4L).map(i => (i, "Node", 0.0, "g")),
      edges = Seq((0L, 1L, "E", 0L), (1L, 2L, "E", 0L), (2L, 0L, "E", 0L), (3L, 4L, "E", 0L)))
    val labels = Queries.q7CommunityDetection(g, iters = 5)
    val (_, members, edges) = Queries.q8LargestCommunity(g, labels, "Node")
    assert(members == 3)
    assert(edges == 3)
  }

  test("Q8 over view communities groups jobs comparably to raw (§ VII-C)") {
    val rawLabels = Queries.q7CommunityDetection(prov, iters = 8)
    val viewLabels = Queries.q7CommunityDetection(view, iters = 4)
    val (_, rawMembers, _) = Queries.q8LargestCommunity(prov, rawLabels, "Job")
    val (_, viewMembers, _) = Queries.q8LargestCommunity(view, viewLabels, "Job")
    // The paper reports "similar groupings", not identical: same order of
    // magnitude of the largest job community.
    assert(rawMembers > 0 && viewMembers > 0)
    val ratio = rawMembers.toDouble / viewMembers
    assert(ratio > 0.2 && ratio < 5.0, s"raw=$rawMembers view=$viewMembers")
  }
}
