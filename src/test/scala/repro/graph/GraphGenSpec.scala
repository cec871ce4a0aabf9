package repro.graph

import org.apache.spark.sql.functions._
import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  private lazy val prov = GraphGen.provSummarized(spark, nJobs = 48).cache()
  private lazy val provRaw = GraphGen.provRaw(spark, nJobs = 24, tasksPerJob = 10, nMachines = 4).cache()
  private lazy val dblp = GraphGen.dblp(spark, nAuthors = 300).cache()
  private lazy val soc = GraphGen.socLivejournal(spark, nVertices = 500).cache()
  private lazy val road = GraphGen.roadnetUsa(spark, side = 20).cache()

  private def schemaConforms(g: PropertyGraph, schema: GraphSchema): Unit = {
    val v = g.vertices.select(col("id"), col("vtype"))
    val joined = g.edges
      .join(v.select(col("id").as("src"), col("vtype").as("srcT")), Seq("src"))
      .join(v.select(col("id").as("dst"), col("vtype").as("dstT")), Seq("dst"))
      .select("srcT", "dstT", "etype").distinct().collect()
    val allowed = schema.edges.map(e => (e.srcType, e.dstType, e.etype)).toSet
    joined.foreach { r =>
      val triple = (r.getString(0), r.getString(1), r.getString(2))
      assert(allowed.contains(triple), s"edge $triple violates schema")
    }
  }

  test("prov summarized has only Job and File vertices") {
    val types = prov.vertices.select("vtype").distinct().collect().map(_.getString(0)).toSet
    assert(types == Set("Job", "File"))
  }

  test("prov summarized conforms to its schema (bipartite lineage)") {
    schemaConforms(prov, GraphSchema.provSummarized)
  }

  test("prov vertex ids are unique") {
    assert(prov.vertices.select("id").distinct().count() == prov.vertexCount)
  }

  test("prov file count is nJobs * fanOut") {
    assert(prov.verticesOfType("File").count() == 48L * 8)
    assert(prov.verticesOfType("Job").count() == 48L)
  }

  test("prov has no self loops and no dangling edge endpoints") {
    assert(prov.edges.filter(col("src") === col("dst")).count() == 0)
    val ids = prov.vertices.select("id")
    val dangling = prov.edges
      .join(ids.withColumnRenamed("id", "src"), Seq("src"), "left_anti")
      .union(prov.edges.join(ids.withColumnRenamed("id", "dst"), Seq("dst"), "left_anti"))
    assert(dangling.count() == 0)
  }

  test("prov generation is deterministic") {
    val again = GraphGen.provSummarized(spark, nJobs = 48)
    assert(again.edges.exceptAll(prov.edges).count() == 0)
    assert(prov.edges.exceptAll(again.edges).count() == 0)
  }

  test("prov raw adds Task and Machine vertices that dominate the graph") {
    val types = provRaw.vertices.groupBy("vtype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(types.keySet == Set("Job", "File", "Task", "Machine"))
    assert(types("Task") == 24L * 10)
    assert(types("Machine") == 4L)
    assert(types("Task") > types("Job"))
  }

  test("prov raw conforms to the raw schema") {
    schemaConforms(provRaw, GraphSchema.provRaw)
  }

  test("prov raw contains the summarized graph as a subgraph") {
    val summ = GraphGen.provSummarized(spark, nJobs = 24)
    assert(summ.edges.exceptAll(provRaw.edges).count() == 0)
  }

  test("dblp has authors, publications and venues in expected ratios") {
    val types = dblp.vertices.groupBy("vtype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(types("Author") == 300L)
    assert(types("Publication") == 450L)
    assert(types("Venue") == 3L)
  }

  test("dblp conforms to its schema") {
    schemaConforms(dblp, GraphSchema.dblpRaw)
  }

  test("dblp WROTE and WRITTEN_BY are mirror images") {
    val wrote = dblp.edgesOfType("WROTE").select(col("src").as("a"), col("dst").as("p"))
    val by = dblp.edgesOfType("WRITTEN_BY").select(col("dst").as("a"), col("src").as("p"))
    assert(wrote.exceptAll(by).count() == 0)
    assert(by.exceptAll(wrote).count() == 0)
  }

  test("dblp summarized variant has no venues") {
    val summ = GraphGen.dblp(spark, nAuthors = 300, includeVenues = false)
    val types = summ.vertices.select("vtype").distinct().collect().map(_.getString(0)).toSet
    assert(types == Set("Author", "Publication"))
    assert(summ.edges.filter(col("etype") === "PUBLISHED_IN").count() == 0)
  }

  test("soc-livejournal is homogeneous with power-law-ish out-degree") {
    val types = soc.vertices.select("vtype").distinct().collect().map(_.getString(0)).toSet
    assert(types == Set("Node"))
    val stats = GraphStats.compute(soc)
    val t = stats.pooled
    // Heavy tail: max out-degree far above the median.
    assert(t.degMax > 10 * math.max(t.deg50, 1.0))
  }

  test("soc-livejournal has no self loops or duplicate edges") {
    assert(soc.edges.filter(col("src") === col("dst")).count() == 0)
    assert(soc.edges.select("src", "dst").distinct().count() == soc.edgeCount)
  }

  test("roadnet is near-uniform low degree (no power law)") {
    val stats = GraphStats.compute(road)
    val t = stats.pooled
    assert(t.degMax <= 2.0) // grid: at most right + down
    assert(stats.edgeCount.toDouble / stats.vertexCount < 1.5)
    assert(stats.edgeCount.toDouble / stats.vertexCount > 0.8)
  }

  test("roadnet edges connect only grid neighbours") {
    val side = 20L
    val bad = road.edges.filter(!(col("dst") - col("src") === 1 || col("dst") - col("src") === side))
    assert(bad.count() == 0)
  }

  test("generators honour the requested scale") {
    val small = GraphGen.socLivejournal(spark, nVertices = 100)
    val big = GraphGen.socLivejournal(spark, nVertices = 1000)
    assert(small.vertexCount == 100 && big.vertexCount == 1000)
    assert(big.edgeCount > small.edgeCount * 5)
  }
}
