package repro.graph

import scala.util.Try
import org.apache.spark.JobCount
import org.scalacheck.Gen
import repro.{PropSampling, SparkSpec}

class GraphStatsSpec extends SparkSpec {

  /** 3 jobs with out-degrees 3, 1, 0; 2 files with out-degrees 1, 0. */
  private lazy val g = PropertyGraph.of(
    spark,
    vertices = Seq(
      (0L, "Job", 1.0, "p0"), (1L, "Job", 2.0, "p0"), (2L, "Job", 3.0, "p1"),
      (10L, "File", 0.0, "s"), (11L, "File", 0.0, "s")),
    edges = Seq(
      (0L, 10L, "WRITES_TO", 1L), (0L, 11L, "WRITES_TO", 2L), (0L, 10L, "WRITES_TO", 3L),
      (1L, 11L, "WRITES_TO", 4L),
      (10L, 2L, "IS_READ_BY", 5L)))

  private lazy val stats = GraphStats.compute(g)

  test("vertex and edge totals") {
    assert(stats.vertexCount == 5)
    assert(stats.edgeCount == 5)
  }

  test("per-type cardinalities") {
    assert(stats.typeStats("Job").n == 3)
    assert(stats.typeStats("File").n == 2)
  }

  test("max out-degree per type") {
    assert(stats.typeStats("Job").degMax == 3.0)
    assert(stats.typeStats("File").degMax == 1.0)
  }

  test("median out-degree counts zero-degree vertices") {
    // Job out-degrees: 0, 1, 3 -> median 1; File: 0, 1 -> median 0.5.
    assert(stats.typeStats("Job").deg50 == 1.0)
    assert(stats.typeStats("File").deg50 == 0.5)
  }

  test("percentiles are monotone: p50 <= p90 <= p95 <= max") {
    for (t <- stats.perType) {
      assert(t.deg50 <= t.deg90)
      assert(t.deg90 <= t.deg95)
      assert(t.deg95 <= t.degMax)
    }
  }

  test("edge type counts") {
    assert(stats.edgeTypeCounts == Map("WRITES_TO" -> 4L, "IS_READ_BY" -> 1L))
  }

  test("unknown type yields zeroed stats") {
    val t = stats.typeStats("Nope")
    assert(t.n == 0 && t.degMax == 0.0)
  }

  test("degAt maps percentiles correctly and rejects others") {
    val t = stats.typeStats("Job")
    assert(t.degAt(50) == t.deg50)
    assert(t.degAt(95) == t.deg95)
    assert(t.degAt(100) == t.degMax)
    assertThrows[IllegalArgumentException](t.degAt(42))
  }

  test("pooled stats on a homogeneous graph equal the single type's") {
    val homo = PropertyGraph.of(
      spark,
      vertices = Seq((0L, "Node", 0.0, "g"), (1L, "Node", 0.0, "g")),
      edges = Seq((0L, 1L, "LINK", 1L)))
    val s = GraphStats.compute(homo)
    assert(s.pooled == s.typeStats("Node"))
  }

  /** Spark jobs of one profile: the per-type aggregation and the edge-type
    * count, which runs alongside it.
    */
  private val ComputeJobs = 5

  test("a profile runs a fixed number of Spark jobs") {
    val (_, work) = JobCount.of(spark.sparkContext)(GraphStats.compute(g))
    assert(work.jobs == ComputeJobs)
  }

  test("a profile that throws still ends the edge-type count before it returns") {
    val typeless = PropertyGraph(g.vertices.drop("vtype"), g.edges)
    val (profiled, work) = JobCount.of(spark.sparkContext)(Try(GraphStats.compute(typeless)))
    assert(profiled.isFailure)
    assert(work.jobs > 0 && work.running == 0, work)
  }
}

/** The join-free profile equals the join formulation it replaced,
  * [[ReferenceStats]], on random typed graphs with unique vertex ids.
  */
class GraphStatsPropSpec extends SparkSpec with PropSampling {

  override def samples: Int = 20

  /** Vertex types by id, and edges `(src, dst, etype)`. */
  private val genGraph = for {
    n <- Gen.choose(1, 10)
    vtypes <- Gen.listOfN(n, Gen.oneOf("A", "B", "C", "D"))
    m <- Gen.choose(0, 12)
    // Sources up to n + 2: edges out of an id that is no vertex.
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0L, n + 2L), Gen.choose(0L, n - 1L), Gen.oneOf("X", "Y")))
    loops <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, Gen.choose(0L, n - 1L)))
  } yield (vtypes, edges ++ loops.map(v => (v, v, "L")))

  test("compute equals the join formulation on random typed graphs") {
    var withIsolated, withLoops, withDangling = 0
    forAll(genGraph) { case (vtypes, edges) =>
      val g = PropertyGraph.of(spark,
        vertices = vtypes.zipWithIndex.map { case (t, i) => (i.toLong, t, 1.0, "g") },
        edges = edges.zipWithIndex.map { case ((s, d, t), i) => (s, d, t, i.toLong) })
      assert(GraphStats.compute(g) == ReferenceStats.compute(g))
      if (vtypes.indices.exists(v => !edges.exists(_._1 == v))) withIsolated += 1
      if (edges.exists(e => e._1 == e._2)) withLoops += 1
      if (edges.exists(_._1 >= vtypes.size)) withDangling += 1
    }
    // The samples cover each case the profile must get right.
    assert(Seq(withIsolated, withLoops, withDangling).forall(_ > 0), (withIsolated, withLoops, withDangling))
  }
}
