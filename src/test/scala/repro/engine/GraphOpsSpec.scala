package repro.engine

import org.apache.spark.JobCount
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, PropSampling, SparkSpec, TraversalOracle}
import repro.core.{EdgeInclusionSummarizerView, EdgeRemovalSummarizerView, KHopConnectorView,
  SourceToSinkConnectorView, VertexInclusionSummarizerView, VertexRemovalSummarizerView}
import repro.graph.{GraphGen, PropertyGraph}

class GraphOpsSpec extends SparkSpec {

  private lazy val prov = GraphGen.provSummarized(spark, nJobs = 48).cache()

  // ---- summarizers ---------------------------------------------------------

  test("vertex-inclusion summarizer keeps only requested types (oracle)") {
    val summ = VertexInclusionSummarizerView(Seq("Job", "File"))
      .build(GraphGen.provRaw(spark, nJobs = 16, tasksPerJob = 5, nMachines = 3))
    Oracle.assertEquivalent(
      summ.vertices.select("id", "vtype"),
      "SELECT id AS id, vtype AS vtype FROM v WHERE vtype IN ('Job','File')",
      "v" -> GraphGen.provRaw(spark, nJobs = 16, tasksPerJob = 5, nMachines = 3)
        .vertices.select("id", "vtype"))
  }

  test("vertex-inclusion summarizer keeps only induced edges (oracle)") {
    val raw = GraphGen.provRaw(spark, nJobs = 16, tasksPerJob = 5, nMachines = 3)
    val summ = VertexInclusionSummarizerView(Seq("Job", "File")).build(raw)
    Oracle.assertEquivalent(
      summ.edges,
      """SELECT e.src AS src, e.dst AS dst, e.etype AS etype, e.ts AS ts
        |FROM e JOIN v a ON e.src = a.id JOIN v b ON e.dst = b.id
        |WHERE a.vtype IN ('Job','File') AND b.vtype IN ('Job','File')""".stripMargin,
      "e" -> raw.edges, "v" -> raw.vertices.select("id", "vtype"))
  }

  test("vertex-removal summarizer equals inclusion of the complement") {
    val raw = GraphGen.provRaw(spark, nJobs = 16, tasksPerJob = 5, nMachines = 3)
    val removed = VertexRemovalSummarizerView("Machine").build(VertexRemovalSummarizerView("Task").build(raw))
    val included = VertexInclusionSummarizerView(Seq("Job", "File")).build(raw)
    assert(removed.vertices.exceptAll(included.vertices).count() == 0)
    assert(included.vertices.exceptAll(removed.vertices).count() == 0)
    assert(removed.edges.exceptAll(included.edges).count() == 0)
  }

  test("edge-inclusion summarizer filters by edge type (oracle)") {
    val view = EdgeInclusionSummarizerView(Seq("WRITES_TO")).build(prov)
    Oracle.assertEquivalent(
      view.edges,
      "SELECT src AS src, dst AS dst, etype AS etype, ts AS ts FROM e WHERE etype = 'WRITES_TO'",
      "e" -> prov.edges)
  }

  test("edge-removal summarizer is the complement of inclusion") {
    val removed = EdgeRemovalSummarizerView("WRITES_TO").build(prov)
    val included = EdgeInclusionSummarizerView(Seq("IS_READ_BY")).build(prov)
    assert(removed.edges.exceptAll(included.edges).count() == 0)
    assert(included.edges.exceptAll(removed.edges).count() == 0)
  }

  test("summarizing the raw prov graph yields the summarized generator output") {
    val raw = GraphGen.provRaw(spark, nJobs = 24, tasksPerJob = 6, nMachines = 3)
    val summ = VertexInclusionSummarizerView(Seq("Job", "File")).build(raw)
    val direct = GraphGen.provSummarized(spark, nJobs = 24)
    assert(summ.edges.exceptAll(direct.edges).count() == 0)
    assert(direct.edges.exceptAll(summ.edges).count() == 0)
  }

  // ---- connectors ----------------------------------------------------------

  test("2-hop job-to-job connector equals the SQL self-join (oracle)") {
    val view = KHopConnectorView("Job", "Job", 2).build(prov)
    Oracle.assertEquivalent(
      view.edges.select("src", "dst", "ts", "paths"),
      """SELECT a.src AS src, b.dst AS dst,
        |       MAX(GREATEST(CAST(a.ts AS BIGINT), CAST(b.ts AS BIGINT))) AS ts,
        |       COUNT(*) AS paths
        |FROM e a
        |JOIN e b ON a.dst = b.src
        |JOIN v vs ON vs.id = a.src AND vs.vtype = 'Job'
        |JOIN v vd ON vd.id = b.dst AND vd.vtype = 'Job'
        |WHERE a.src <> b.dst AND a.src <> a.dst AND b.src <> b.dst
        |GROUP BY a.src, b.dst""".stripMargin,
      "e" -> prov.edges, "v" -> prov.vertices.select("id", "vtype"))
  }

  test("connector view vertices are the endpoint-type vertices") {
    val view = KHopConnectorView("Job", "Job", 2).build(prov)
    val types = view.vertices.select("vtype").distinct().collect().map(_.getString(0)).toSet
    assert(types == Set("Job"))
    assert(view.vertices.count() == prov.verticesOfType("Job").count())
  }

  test("connector edges carry the requested label") {
    val view = KHopConnectorView("Job", "Job", 2).build(prov)
    val labels = view.edges.select("etype").distinct().collect().map(_.getString(0)).toSet
    assert(labels == Set("2_HOP_JOB_TO_JOB"))
  }

  test("file-to-file 2-hop connector exists and differs from job-to-job (Fig. 3)") {
    val j2j = KHopConnectorView("Job", "Job", 2).build(prov)
    val f2f = KHopConnectorView("File", "File", 2).build(prov)
    assert(j2j.edges.count() > 0)
    assert(f2f.edges.count() > 0)
    // Disjoint endpoint id spaces.
    val jobIds = prov.verticesOfType("Job").select("id")
    assert(f2f.edges.join(jobIds.withColumnRenamed("id", "src"), Seq("src"), "left_semi").count() == 0)
  }

  test("4-hop job-to-job connector pairs equal two chained 2-hop connector hops") {
    val c2 = KHopConnectorView("Job", "Job", 2).build(prov).edges
      .select(col("src"), col("dst")).cache()
    val c4 = KHopConnectorView("Job", "Job", 4).build(prov).edges
      .select(col("src"), col("dst"))
    val chained = c2.join(c2.select(col("src").as("mid"), col("dst").as("d2")),
        col("dst") === col("mid"))
      .select(col("src"), col("d2").as("dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
    // Chained pairs go through an intermediate job; 4-hop paths with a
    // repeated endpoint-adjacent vertex are excluded in both. They agree.
    assert(c4.select("src", "dst").exceptAll(chained).count() == 0)
    assert(chained.exceptAll(c4.select("src", "dst")).count() == 0)
  }

  test("2-hop path count matches SQL (oracle, scalar)") {
    import spark.implicits._
    val n = GraphOps.countKHopPaths(prov, 2)
    Oracle.assertEquivalent(
      Seq(n).toDF("c"),
      """SELECT COUNT(*) AS c FROM e a JOIN e b ON a.dst = b.src
        |WHERE a.src <> b.dst AND a.src <> a.dst AND b.src <> b.dst""".stripMargin,
      "e" -> prov.edges)
  }

  test("connector on a hand-built path graph") {
    // a -> f -> b -> g -> c (jobs a,b,c; files f,g)
    val g = PropertyGraph.of(
      spark,
      vertices = Seq((1L, "Job", 1.0, "p"), (2L, "Job", 1.0, "p"), (3L, "Job", 1.0, "p"),
        (10L, "File", 0.0, "s"), (11L, "File", 0.0, "s")),
      edges = Seq((1L, 10L, "W", 5L), (10L, 2L, "R", 7L), (2L, 11L, "W", 9L), (11L, 3L, "R", 4L)))
    val view = KHopConnectorView("Job", "Job", 2).build(g)
    val rows = view.edges.select("src", "dst", "ts", "paths").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3))).toSet
    assert(rows == Set((1L, 2L, 7L, 1L), (2L, 3L, 9L, 1L)))
  }

  test("connector multiplicity counts parallel contracted paths") {
    // Two distinct files both connect job 1 to job 2.
    val g = PropertyGraph.of(
      spark,
      vertices = Seq((1L, "Job", 1.0, "p"), (2L, "Job", 1.0, "p"),
        (10L, "File", 0.0, "s"), (11L, "File", 0.0, "s")),
      edges = Seq((1L, 10L, "W", 1L), (10L, 2L, "R", 2L),
        (1L, 11L, "W", 3L), (11L, 2L, "R", 8L)))
    val rows = KHopConnectorView("Job", "Job", 2).build(g)
      .edges.select("src", "dst", "ts", "paths").collect()
    assert(rows.length == 1)
    assert(rows(0).getLong(2) == 8L) // max ts across both paths
    assert(rows(0).getLong(3) == 2L) // two contracted paths
  }

  /** Per pair of distinct endpoints, (max ts, number) of the walks of `k`
    * edges, self-loops excluded, listed one by one.
    */
  private def walkReference(edges: Seq[(Long, Long, String, Long)], k: Int): Map[(Long, Long), (Long, Long)] = {
    val out = edges.filter(e => e._1 != e._2).groupBy(_._1)
    def ends(v: Long, left: Int, ts: Long): Seq[(Long, Long)] =
      if (left == 0) Seq(v -> ts)
      else out.getOrElse(v, Nil).flatMap(e => ends(e._2, left - 1, ts max e._4))
    edges.map(_._1).distinct
      .flatMap(s => ends(s, k, Long.MinValue).collect { case (d, ts) if d != s => (s, d) -> ts })
      .groupMapReduce(_._1)(w => (w._2, 1L)) { case ((t1, n1), (t2, n2)) => (t1 max t2, n1 + n2) }
  }

  test("k-hop connector and path count equal a walk-level reference on parallel edges") {
    // jobs 1-3, files 10-11; parallel edges 1->10 and 10->11, a self-loop
    // on 1, and the cycles 1->10->2->3->1 and 2->10->11->2.
    val edges = Seq((1L, 10L, "W", 1L), (1L, 10L, "W", 4L), (10L, 11L, "C", 2L), (10L, 11L, "C", 6L),
      (11L, 2L, "R", 3L), (10L, 2L, "R", 5L), (2L, 10L, "W", 7L), (2L, 3L, "J", 2L), (3L, 1L, "J", 9L),
      (1L, 1L, "L", 8L), (11L, 3L, "R", 1L))
    val g = PropertyGraph.of(spark,
      vertices = Seq(1L, 2L, 3L).map(i => (i, "Job", 1.0, "p")) ++ Seq(10L, 11L).map(i => (i, "File", 0.0, "s")),
      edges = edges)
    for (k <- 3 to 4) {
      val reference = walkReference(edges, k)
      val rows = KHopConnectorView("Job", "Job", k).build(g).edges.select("src", "dst", "ts", "paths")
        .collect().map(r => (r.getLong(0), r.getLong(1)) -> (r.getLong(2), r.getLong(3))).toMap
      assert(rows == reference.filter { case ((s, d), _) => s < 10 && d < 10 }, s"k=$k")
      assert(GraphOps.countKHopPaths(g, k) == reference.values.map(_._2).sum, s"k=$k")
    }
  }

  test("10-hop job-to-job connector builds on a 32-job pipeline") {
    val g = GraphGen.provSummarized(spark, nJobs = 32)
    val view = KHopConnectorView("Job", "Job", 10).build(g)
    assert(view.edges.agg(min("paths")).collect()(0).getLong(0) >= 1)
  }

  // ---- source-to-sink connector -------------------------------------------

  test("source-to-sink connector on a diamond DAG") {
    //  1 -> 2 -> 4 ; 1 -> 3 -> 4 ; source 1, sink 4
    val g = PropertyGraph.of(
      spark,
      vertices = (1L to 4L).map(i => (i, "Node", 0.0, "g")),
      edges = Seq((1L, 2L, "E", 1L), (2L, 4L, "E", 2L), (1L, 3L, "E", 3L), (3L, 4L, "E", 4L)))
    val view = SourceToSinkConnectorView("Node", "Node").build(g)
    val rows = view.edges.select("src", "dst", "paths").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
    assert(rows.toSet == Set((1L, 4L, 2L))) // two contracted paths, one pair
    val vs = view.vertices.select("id").collect().map(_.getLong(0)).toSet
    assert(vs == Set(1L, 4L))
  }

  test("source-to-sink connector contracts only its source and sink types") {
    // Job 1 writes file 10, which nothing reads, and file 11, which job 2
    // reads: 1 is the only source; file 10 and job 2 are the sinks.
    val g = PropertyGraph.of(
      spark,
      vertices = Seq((1L, "Job", 1.0, "p"), (2L, "Job", 1.0, "p"),
        (10L, "File", 0.0, "s"), (11L, "File", 0.0, "s")),
      edges = Seq((1L, 10L, "W", 1L), (1L, 11L, "W", 2L), (11L, 2L, "R", 3L)))
    val view = SourceToSinkConnectorView("Job", "Job").build(g)
    val pairs = view.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs == Set((1L, 2L)))
    assert(view.vertices.select("id").collect().map(_.getLong(0)).toSet == Set(1L, 2L))
  }

  // ---- reachability --------------------------------------------------------

  test("reachablePairs matches a recursive CTE (oracle)") {
    val jobs = prov.verticesOfType("Job").select("id")
    val pairs = GraphOps.reachablePairs(prov.edges, jobs, maxHops = 4)
    Oracle.assertEquivalent(pairs, TraversalOracle.reachablePairs(4),
      "e" -> prov.edges.select("src", "dst"), "roots" -> jobs)
  }

  test("reachablePairs reversed matches the CTE on flipped edges (oracle)") {
    val jobs = prov.verticesOfType("Job").select("id").limit(8)
    val pairs = GraphOps.reachablePairs(prov.edges, jobs, maxHops = 3, reversed = true)
    Oracle.assertEquivalent(pairs, TraversalOracle.reachablePairs(3, reversed = true),
      "e" -> prov.edges.select("src", "dst"), "roots" -> jobs)
  }

  test("reachablePairs with zero hops is empty") {
    val jobs = prov.verticesOfType("Job").select("id")
    assert(GraphOps.reachablePairs(prov.edges, jobs, maxHops = 0).count() == 0)
  }

  test("reachablePairs grows monotonically with the hop budget") {
    val jobs = prov.verticesOfType("Job").select("id")
    val h2 = GraphOps.reachablePairs(prov.edges, jobs, 2).count()
    val h4 = GraphOps.reachablePairs(prov.edges, jobs, 4).count()
    assert(h2 <= h4)
    assert(h2 > 0)
  }

  // ---- the frontier step ---------------------------------------------------

  test("the frontier step stops at the first empty hop") {
    // 1 -> 2 -> 3 -> 4
    val chain = PropertyGraph.of(spark, vertices = (1L to 4L).map(i => (i, "Node", 0.0, "g")),
      edges = Seq((1L, 2L, "E", 1L), (2L, 3L, "E", 2L), (3L, 4L, "E", 3L)))
    val seed = chain.vertices.filter(col("id") === 1L).select(col("id").as("cur"))
    def traverse(maxHops: Int) = {
      val (hops, work) = JobCount.of(spark.sparkContext)(
        GraphOps.frontiers(seed, chain.edges, maxHops)((moved, _) => moved))
      (hops, work.jobs)
    }
    val (hops, jobs) = traverse(10)
    // The seed, three hops and the empty fourth, which ends the traversal.
    assert(hops.map(_.count()) == Seq(1L, 1L, 1L, 1L, 0L))
    // Hop 1 is the only one materialized with a bound of 2.
    val perHop = traverse(2)._2
    assert(jobs <= 4 * perHop, s"$jobs jobs for 4 hops, $perHop for one")
  }
}

/** The frontier step against DuckDB on random small typed graphs, with
  * cycles, parallel edges and self-loops, and hop bounds 0..6.
  */
class FrontierPropSpec extends SparkSpec with PropSampling {

  override def samples: Int = 10

  private val genCase = for {
    n <- Gen.choose(1, 7)
    vtypes <- Gen.listOfN(n, Gen.oneOf("A", "B"))
    m <- Gen.choose(0, 12)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L), Gen.choose(0L, 50L)))
    ring <- Gen.oneOf(true, false)
    hops <- Gen.choose(0, 6)
  } yield {
    val cycle = if (ring) (0L until n.toLong).map(i => (i, (i + 1) % n, 3 * i)) else Nil
    val g = PropertyGraph.of(spark,
      vertices = vtypes.zipWithIndex.map { case (t, i) => (i.toLong, t, 1.0, "g") },
      edges = (edges ++ cycle).map { case (s, d, ts) => (s, d, "E", ts) })
    (g, hops)
  }

  test("reachablePairs and pathContraction equal recursive CTEs") {
    forAll(genCase) { case (g, hops) =>
      val roots = g.verticesOfType("A").select("id")
      for (reversed <- Seq(false, true))
        Oracle.assertEquivalent(GraphOps.reachablePairs(g.edges, roots, hops, reversed),
          TraversalOracle.reachablePairs(hops, reversed), "e" -> g.edges.select("src", "dst"), "roots" -> roots)
      val view = GraphOps.pathContraction(g, roots, g.verticesOfType("B").select("id"), g.edges, hops, "C")
      TraversalOracle.assertContraction(view, g, g.edges, "A", "B", hops)
    }
  }
}
