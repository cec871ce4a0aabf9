package repro.core

import org.scalacheck.Gen
import repro.{Oracle, PropSampling, SparkSpec}
import repro.engine.UnhintedBuilds
import repro.graph.PropertyGraph

/** The connector builds, whose type-id semi-joins are broadcast, return the
  * same rows as the unhinted builds of [[UnhintedBuilds]] on random typed
  * graphs with cycles, parallel edges and self-loops.
  */
class HintedBuildPropSpec extends SparkSpec with PropSampling {

  override def samples: Int = 4

  private val genGraph = for {
    n <- Gen.choose(2, 7)
    vtypes <- Gen.listOfN(n - 2, Gen.oneOf("A", "B")).map(Seq("A", "B") ++ _)
    m <- Gen.choose(n, 3 * n)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L), Gen.oneOf("X", "Y"),
      Gen.choose(0L, 50L)))
  } yield PropertyGraph.of(spark,
    vertices = vtypes.zipWithIndex.map { case (t, i) => (i.toLong, t, 1.0, "g") },
    edges = edges)

  private def rows(g: PropertyGraph): (Seq[String], Seq[String]) =
    (g.vertices.collect().map(_.toString).sorted.toSeq,
      g.edges.select("src", "dst", "etype", "ts", "paths").collect().map(_.toString).sorted.toSeq)

  test("hinted connector builds equal the unhinted ones") {
    forAll(genGraph) { g =>
      val views = (1 to 4).flatMap(k => Seq(KHopConnectorView("A", "A", k), KHopConnectorView("A", "B", k))) ++
        Seq(SameVertexTypeConnectorView("A"), SameEdgeTypeConnectorView("A", "B", "X"),
          SourceToSinkConnectorView("A", "B"))
      for (view <- views) assert(rows(view.build(g)) == rows(UnhintedBuilds.build(view, g)), view.key)
    }
  }

  test("the hinted 2-hop connector equals the SQL self-join (oracle)") {
    var nonEmpty = 0
    forAll(genGraph) { g =>
      val edges = KHopConnectorView("A", "B", 2).build(g).edges.select("src", "dst", "etype", "ts", "paths")
      if (!edges.isEmpty) nonEmpty += 1
      Oracle.assertEquivalent(
        edges,
        """SELECT a.src AS src, b.dst AS dst, '2_HOP_A_TO_B' AS etype,
          |       MAX(GREATEST(CAST(a.ts AS BIGINT), CAST(b.ts AS BIGINT))) AS ts,
          |       COUNT(*) AS paths
          |FROM e a
          |JOIN e b ON a.dst = b.src
          |JOIN v vs ON vs.id = a.src AND vs.vtype = 'A'
          |JOIN v vd ON vd.id = b.dst AND vd.vtype = 'B'
          |WHERE a.src <> b.dst AND a.src <> a.dst AND b.src <> b.dst
          |GROUP BY a.src, b.dst""".stripMargin,
        "e" -> g.edges, "v" -> g.vertices.select("id", "vtype"))
    }
    assert(nonEmpty > 0, "no sample had a 2-hop A-to-B walk")
  }
}
