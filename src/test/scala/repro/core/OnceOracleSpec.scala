package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSampling
import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.{GraphSchema, GraphStats, TypeStats}
import repro.prolog.{Database, ReferenceSolver, Solver}

/** The view templates wrap their bound existence checks in `once/1`. The
  * oracle is the same library with every `once(` read as `call(`, which keeps
  * every derivation: over random chain patterns on the built-in schemas, both
  * must give the same candidates, k-hop instantiations and selection.
  */
class OnceOracleSpec extends AnyFunSuite with PropSampling {
  override def samples: Int = 60

  private val schemas = Seq(GraphSchema.provRaw, GraphSchema.provSummarized, GraphSchema.dblpRaw,
    GraphSchema.dblpSummarized, GraphSchema.homogeneous())

  private val oracleTemplates = ViewTemplates.all.replace("once(", "call(")

  private def oracle(q: QueryGraph, schema: GraphSchema): ViewEnumerator.Enumeration = {
    val db = Database.withPrelude()
    db.consult(oracleTemplates)
    db.consult(MiningRules.all)
    db.consult(ConstraintMiner.facts(q, schema))
    ViewEnumerator.enumeration(q, new Solver(db))
  }

  /** A chain of 1..3 segments from a random vertex type: each segment is a
    * schema edge out of the current type, or a variable-length path with
    * bounds in 0..4 to a random type. Returns the ends, and sometimes a
    * middle vertex.
    */
  private def chain(schema: GraphSchema): Gen[String] = for {
    n <- Gen.choose(1, 3)
    start <- Gen.oneOf(schema.vertexTypes)
    segments <- Gen.listOfN(n, Gen.zip(Gen.prob(0.5), Gen.choose(0, 4), Gen.choose(0, 4),
      Gen.oneOf(schema.vertexTypes), Gen.choose(0, 7)))
    projectMiddle <- Gen.prob(0.3)
  } yield {
    val (types, rels) = segments.foldLeft((Vector(start), Vector.empty[String])) {
      case ((ts, rs), (fixed, a, b, anyType, pick)) =>
        val out = schema.edges.filter(_.srcType == ts.last)
        if (fixed && out.nonEmpty) {
          val e = out(pick % out.size)
          (ts :+ e.dstType, rs :+ s"-[:${e.etype}]->")
        } else (ts :+ anyType, rs :+ s"-[r${rs.size}*${math.min(a, b)}..${math.max(a, b)}]->")
    }
    def v(i: Int) = s"(v$i:${types(i)})"
    val matches = rels.indices.map(i => s"${v(i)}${rels(i)}${v(i + 1)}")
    val returns = (Seq(0, types.size - 1) ++ Option.when(projectMiddle && types.size > 2)(1)).map(i => s"v$i")
    s"MATCH ${matches.mkString(", ")} RETURN ${returns.mkString(", ")}"
  }

  private def uniformStats(s: GraphSchema): GraphStats =
    GraphStats(100L * s.vertexTypes.size, 300L * s.edgeTypes.size,
      s.vertexTypes.map(t => TypeStats(t, 100L, 2.0, 4.0, 5.0, 12.0)), s.edgeTypes.map(_ -> 300L).toMap)

  private val workloads: Gen[(GraphSchema, Seq[QueryGraph])] = for {
    schema <- Gen.oneOf(schemas)
    n <- Gen.choose(1, 3)
    qs <- Gen.listOfN(n, chain(schema))
  } yield (schema, qs.map(CypherParser.parse))

  test("once/1 in the templates changes no candidate, k-hop instantiation or selection") {
    forAll(workloads) { case (schema, workload) =>
      val withOnce = workload.map(ViewEnumerator.enumeration(_, schema))
      val withCall = workload.map(oracle(_, schema))
      withOnce.zip(withCall).foreach { case (e, o) =>
        assert(e.candidates.map(_.key) == o.candidates.map(_.key), e.query)
        assert(e.kHops == o.kHops, e.query)
        assert(e.kHops == ViewEnumerator.kHopInstantiations(e.query, schema), e.query)
      }
      val stats = uniformStats(schema)
      def chosen(es: Seq[ViewEnumerator.Enumeration]) =
        ViewSelector.selectEnumerated(es, schema, stats, 7L * stats.edgeCount, None).map(s => (s.view.key, s.size, s.improvement))
      assert(chosen(withOnce) == chosen(withCall), workload)
      assert(ViewSelector.select(workload, schema, stats, 7L * stats.edgeCount).map(_.view.key) ==
        chosen(withCall).map(_._1), workload)
    }
  }

  test("the solver gives the reference solver's answers, in order, and its work counts") {
    forAll(workloads) { case (schema, workload) =>
      workload.foreach { q =>
        val db = ViewEnumerator.buildDatabase(q, schema)
        val solver = new Solver(db)
        val reference = new ReferenceSolver(db)
        CandidateView.templates.foreach { t =>
          val expected = ReferenceSolver.onDeepStack(reference.query(t.goal).toList)
          assert(solver.query(t.goal).toList == expected, (q, t.goal))
          assert((solver.clausesTried, solver.maxDepthReached) == (reference.clausesTried, reference.maxDepthReached),
            (q, t.goal))
        }
      }
    }
  }
}
