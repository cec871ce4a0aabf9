package repro.core

import org.apache.spark.{ExecutedPlans, JobCount}
import org.apache.spark.storage.StorageLevel
import repro.{Oracle, SparkSpec}
import repro.TraversalOracle.assertContraction
import repro.engine.Queries
import repro.graph.{GraphGen, GraphSchema, GraphStats, PropertyGraph}

/** End-to-end pipeline over the provenance graph, mirroring Fig. 2:
  * profile → enumerate → select → materialize → rewrite → execute,
  * with result equivalence between the raw and rewritten plans.
  */
class KaskadeIntegrationSpec extends SparkSpec {

  private lazy val raw = GraphGen.provRaw(spark, nJobs = 32, tasksPerJob = 8, nMachines = 4).cache()
  private lazy val summarized = GraphGen.provSummarized(spark, nJobs = 32).cache()

  private val blastRadiusCypher =
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin

  /** Spark jobs that materializing the blast radius's selection on
    * `summarized` runs: the 2-hop connector alone, its edges counted once.
    * Its source and sink semi-joins read broadcast id sets.
    */
  private val MaterializeSelectionJobs = 7

  test("pipeline: summarizer chosen on the raw schema removes tasks+machines") {
    val kas = new Kaskade(GraphSchema.provRaw, GraphStats.compute(raw))
    val q = kas.parse(blastRadiusCypher)
    val views = kas.enumerate(q)
    val incl = views.collectFirst { case v: VertexInclusionSummarizerView => v }
    assert(incl.isDefined)
    val filtered = kas.materialize(incl.get, raw)
    assert(filtered.vertexCount == summarized.vertexCount)
    assert(filtered.edgeCount == summarized.edgeCount)
  }

  test("pipeline: selection on the summarized graph materializes a connector that answers Q1") {
    val stats = GraphStats.compute(summarized)
    val kas = new Kaskade(GraphSchema.provSummarized, stats)
    val q = kas.parse(blastRadiusCypher)

    val selected = kas.selectViews(Seq(q), budgetEdges = 1_000_000L)
    assert(selected.nonEmpty, "no views selected under a generous budget")
    val connector = selected.collectFirst {
      case sv if sv.view.isInstanceOf[KHopConnectorView] => sv.view.asInstanceOf[KHopConnectorView]
    }
    assert(connector.isDefined, "expected a k-hop connector among selected views")

    val two = KHopConnectorView("Job", "Job", 2)
    val view = kas.materialize(two, summarized)
    assert(view.edgeCount > 0)

    val rw = kas.rewrite(q)
    assert(rw.isDefined)
    assert(rw.get.view.k == 2)
    assert(rw.get.hopsHi == 5)

    // Execute both plans; the rewriting is result-equivalent.
    val rawResult = Queries.q1BlastRadius(summarized, "Job", maxHops = CostModel.hopBudget(q))
    val viewResult = Queries.q1BlastRadius(view, "Job", maxHops = rw.get.hopsHi)
    assert(rawResult.exceptAll(viewResult).count() == 0)
    assert(viewResult.exceptAll(rawResult).count() == 0)
  }

  test("pipeline: the blast radius selects only the 2-hop connector that its rewriting reads") {
    val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(summarized))
    val baseEdges = summarized.edgeCount
    val selected = kas.selectViews(Seq(kas.parse(blastRadiusCypher)), budgetEdges = 7 * baseEdges)
    assert(selected.map(_.view) == Seq(KHopConnectorView("Job", "Job", 2)))
    // Other tests cache the same view of `summarized`; release it, so that
    // the count covers the build.
    selected.foreach(s => kas.materialize(s.view, summarized).unpersist())
    val (_, work) = JobCount.of(spark.sparkContext)(selected.foreach(s => kas.materialize(s.view, summarized)))
    assert(work.jobs == MaterializeSelectionJobs)
    // No selected view is as large as the base graph. The bound is checked
    // on the built size: the α = 95 estimate, 4352 edges here, is above it.
    assert(kas.viewSizes.values.forall(_ < baseEdges), kas.viewSizes)
    kas.materialized.foreach(v => kas.viewGraph(v).foreach(_.unpersist()))
  }

  test("Q1 runs no broadcast join, on the base graph or on a materialized view") {
    val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(smallSummarized))
    val view = kas.materialize(KHopConnectorView("Job", "Job", 2), smallSummarized)
    for ((g, hops) <- Seq(smallSummarized -> 4, view -> 2)) {
      val (_, plans) = ExecutedPlans.of(spark)(Queries.q1BlastRadius(g, "Job", hops).collect())
      val ops = plans.flatten.toSet
      // The traversal's joins are in the plans the check reads.
      assert(ops.contains("SortMergeJoin"), ops)
      assert(!ops.exists(_.startsWith("Broadcast")), ops)
    }
    view.unpersist()
  }

  /** `g` cached in 64 partitions per side: the generator's layout under the
    * harnesses' 64 shuffle partitions, wider than one partition per core.
    */
  private def at64(g: PropertyGraph): PropertyGraph =
    PropertyGraph(g.vertices.repartition(64), g.edges.repartition(64)).cache()

  test("set-up over a 64-partition input gives the same stats and runs at most one task per core") {
    val summarized64 = at64(summarized)
    assert(GraphStats.compute(summarized64) == GraphStats.compute(summarized))
    val budget = 7 * summarized.edgeCount
    val (kas, work) = JobCount.of(spark.sparkContext) {
      val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(summarized64))
      kas.selectViews(Seq(kas.parse(blastRadiusCypher)), budget).foreach(s => kas.materialize(s.view, summarized64))
      kas
    }
    val parallelism = spark.sparkContext.defaultParallelism
    assert(work.maxStageTasks <= parallelism, s"tasks per stage ${work.stageTasks}, $parallelism cores")
    assert(kas.materialized == Seq(KHopConnectorView("Job", "Job", 2)))
    kas.materialized.foreach(v => kas.viewGraph(v).foreach(_.unpersist()))
    summarized64.unpersist()
  }

  test("materializing a view key again releases the view it replaces") {
    val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(summarized))
    val two = KHopConnectorView("Job", "Job", 2)
    val small = kas.materialize(two, smallSummarized)
    kas.materialize(two, summarized)
    assert(small.edges.storageLevel == StorageLevel.NONE)
    val size = kas.viewSizes(two.key)
    // A build over the same graph shares the old view's plan, so releasing
    // the old view after the build would drop the new one's cache.
    val again = kas.materialize(two, summarized)
    assert(again.edges.storageLevel != StorageLevel.NONE)
    assert(kas.viewSizes(two.key) == size && again.edgeCount == size)
    again.unpersist()
  }

  test("unpersisting a materialized edge summarizer keeps the base graph's cache") {
    val g = GraphGen.provSummarized(spark, nJobs = 8, fanOut = 2, readers = 2).cache()
    val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(g))
    val cached = (g.vertices.storageLevel, g.edges.storageLevel)
    assert(cached._1 != StorageLevel.NONE && cached._2 != StorageLevel.NONE)
    Seq(EdgeInclusionSummarizerView(Seq("IS_READ_BY", "WRITES_TO")), EdgeRemovalSummarizerView("WRITES_TO"))
      .foreach { v =>
        kas.materialize(v, g).unpersist()
        assert((g.vertices.storageLevel, g.edges.storageLevel) == cached, v.key)
      }
    g.unpersist()
  }

  test("pipeline: rewritten Q1 result matches the DuckDB oracle end-to-end") {
    val stats = GraphStats.compute(summarized)
    val kas = new Kaskade(GraphSchema.provSummarized, stats)
    val q = kas.parse(blastRadiusCypher)
    val view = kas.materialize(KHopConnectorView("Job", "Job", 2), summarized)
    val rw = kas.rewrite(q).get
    val viewResult = Queries.q1BlastRadius(view, "Job", maxHops = rw.hopsHi)
    // Oracle computes Q1 on the ORIGINAL summarized graph with the full
    // 10-hop budget; equality shows the view plan answers the original query.
    Oracle.assertEquivalent(
      viewResult,
      """WITH RECURSIVE reach(root, v, d) AS (
        |  SELECT id, id, 0 FROM jobs
        |  UNION
        |  SELECT r.root, e.dst, r.d + 1 FROM reach r JOIN e ON r.v = e.src WHERE r.d < 10
        |),
        |pairs AS (SELECT DISTINCT root, v FROM reach WHERE root <> v),
        |jmeta AS (SELECT id, CAST(cpu AS DOUBLE) AS cpu, grp FROM vmeta WHERE vtype = 'Job'),
        |perroot AS (
        |  SELECT p.root, SUM(j.cpu) AS t_cpu FROM pairs p JOIN jmeta j ON p.v = j.id GROUP BY p.root
        |)
        |SELECT j.grp AS grp, AVG(pr.t_cpu) AS avg_cpu
        |FROM perroot pr JOIN jmeta j ON pr.root = j.id GROUP BY j.grp""".stripMargin,
      "e" -> summarized.edges.select("src", "dst"),
      "jobs" -> summarized.verticesOfType("Job").select("id"),
      "vmeta" -> summarized.vertices)
  }

  test("pipeline: estimator α=95 upper-bounds the materialized 2-hop path count") {
    val stats = GraphStats.compute(summarized)
    val est95 = SizeEstimator.estimate(stats, GraphSchema.provSummarized, 2, 95)
    val actual = repro.engine.GraphOps.countKHopPaths(summarized, 2)
    // α=95 is the paper's operational upper bound; allow slack for the
    // sub-percentile tail but require the right order of magnitude.
    assert(est95 >= actual * 0.5, s"est=$est95 actual=$actual")
  }

  test("pipeline: view-based rewriting is declined when no view matches") {
    val stats = GraphStats.compute(summarized)
    val kas = new Kaskade(GraphSchema.provSummarized, stats)
    val q = kas.parse(blastRadiusCypher)
    assert(kas.rewrite(q).isEmpty) // nothing materialized yet in this instance
  }

  test("rewrite runs no Spark job and costs on the size recorded at materialization") {
    val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(summarized))
    val q = kas.parse(blastRadiusCypher)
    val two = KHopConnectorView("Job", "Job", 2)
    kas.materialize(two, smallSummarized)
    val smallEdges = kas.viewSizes(two.key)
    val view = kas.materialize(two, summarized)
    assert(kas.viewSizes == Map(two.key -> view.edgeCount))
    assert(kas.viewSizes(two.key) != smallEdges)
    val (rw, work) = JobCount.of(spark.sparkContext)(kas.rewrite(q))
    assert(work.jobs == 0)
    // The rewriting chosen when every call counted the view's edges.
    assert(rw == Some(Rewriting(two, 1, 5, 1.371583763543611E7, 390245.523188591)))
  }

  test("dblp pipeline: author-to-author connector answers the co-authorship query") {
    val dblp = GraphGen.dblp(spark, nAuthors = 150, includeVenues = false).cache()
    val stats = GraphStats.compute(dblp)
    val kas = new Kaskade(GraphSchema.dblpSummarized, stats)
    val q = kas.parse(
      """MATCH (a1:Author)-[:WROTE]->(p:Publication),
        |      (p:Publication)-[:WRITTEN_BY]->(a2:Author)
        |RETURN a1, a2""".stripMargin)
    val views = kas.enumerate(q)
    assert(views.exists { case KHopConnectorView("Author", "Author", 2) => true; case _ => false })
    val view = kas.materialize(KHopConnectorView("Author", "Author", 2), dblp)
    val rw = kas.rewrite(q)
    assert(rw.isDefined && rw.get.hopsLo == 1 && rw.get.hopsHi == 1)
    // One hop on the connector = the original 2-hop co-authorship pairs.
    val direct = Queries.q3Descendants(dblp, "Author", maxHops = 2)
    val overView = Queries.q3Descendants(view, "Author", maxHops = 1)
    assert(direct.exceptAll(overView).count() == 0)
    assert(overView.exceptAll(direct).count() == 0)
  }

  // ---- every view type builds ----------------------------------------------

  // A small pipeline keeps building all the blast radius's candidates short.
  private lazy val smallRaw =
    GraphGen.provRaw(spark, nJobs = 8, tasksPerJob = 3, nMachines = 2, fanOut = 2, readers = 2).cache()
  private lazy val smallSummarized = GraphGen.provSummarized(spark, nJobs = 8, fanOut = 2, readers = 2).cache()

  /** A 12-cycle with three chords: cyclic, so the unbounded connectors stop
    * at their hop bound.
    */
  private lazy val ring = PropertyGraph.of(spark,
    vertices = (0L until 12L).map(i => (i, "Node", 1.0, "g")),
    edges = ((0L until 12L).map(i => (i, (i + 1) % 12)) ++ Seq((2L, 7L), (5L, 1L), (9L, 4L)))
      .map { case (s, d) => (s, d, "LINK", (s * 37 + d * 11) % 50) }).cache()

  private def edgeRows(g: PropertyGraph): Seq[String] = g.edges.collect().map(_.toString).sorted.toSeq

  test("every candidate the enumerator emits materializes") {
    val built = Seq(
      (smallRaw, GraphSchema.provRaw, blastRadiusCypher),
      (smallSummarized, GraphSchema.provSummarized, blastRadiusCypher),
      (ring, GraphSchema.homogeneous(), "MATCH (a:Node)-[r*1..4]->(b:Node) RETURN a, b"),
    ).flatMap { case (g, schema, cypher) =>
      val kas = new Kaskade(schema, GraphStats.compute(g))
      // Every view has the same edges when built from a 64-partition copy.
      val g64 = at64(g)
      val views = kas.enumerate(kas.parse(cypher)).map { view =>
        val v = kas.materialize(view, g)
        assert(v.edges.columns.take(4).toSeq == Seq("src", "dst", "etype", "ts") && v.edgeCount >= 0, view.key)
        val rows = edgeRows(v)
        v.unpersist()
        val v64 = kas.materialize(view, g64)
        assert(edgeRows(v64) == rows, view.key)
        v64.unpersist()
        view
      }
      g64.unpersist()
      views
    }
    assert(built.map(_.getClass).distinct.size == CandidateView.templates.size)
    assert(built.contains(SameVertexTypeConnectorView("Job")))
    assert(built.contains(SameEdgeTypeConnectorView("Node", "Node", "LINK")))
  }

  test("same-vertex-type connector edges match the DuckDB oracle") {
    val jobs = SameVertexTypeConnectorView("Job")
    assertContraction(jobs.build(smallSummarized), smallSummarized, smallSummarized.edges, "Job", "Job", 8)
    val nodes = SameVertexTypeConnectorView("Node", maxHops = 5)
    val view = nodes.build(ring)
    assert(view.edgeCount > 0)
    assertContraction(view, ring, ring.edges, "Node", "Node", 5)
  }

  test("same-edge-type connector edges match the DuckDB oracle") {
    val links = SameEdgeTypeConnectorView("Node", "Node", "LINK").build(ring)
    assertContraction(links, ring, ring.edges, "Node", "Node", CandidateView.UnboundedPathHops)
    val transfers = SameEdgeTypeConnectorView("Task", "Task", "TRANSFERS_TO").build(smallRaw)
    assert(transfers.edgeCount > 0)
    assertContraction(transfers, smallRaw, smallRaw.edgesOfType("TRANSFERS_TO"), "Task", "Task",
      CandidateView.UnboundedPathHops)
  }
}
