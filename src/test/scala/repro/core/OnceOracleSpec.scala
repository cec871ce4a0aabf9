package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropSampling
import repro.core.ChainPatterns.{uniformStats, workloads}
import repro.cypher.QueryGraph
import repro.graph.GraphSchema
import repro.prolog.{Database, ReferenceSolver, Solver}

/** The view templates wrap their bound existence checks in `once/1`. The
  * oracle is the same library with every `once(` read as `call(`, which keeps
  * every derivation: over random chain patterns on the built-in schemas, both
  * must give the same candidates, k-hop instantiations and selection.
  */
class OnceOracleSpec extends AnyFunSuite with PropSampling {
  override def samples: Int = 60

  private val oracleTemplates = ViewTemplates.all.replace("once(", "call(")

  private def oracle(q: QueryGraph, schema: GraphSchema): ViewEnumerator.Enumeration = {
    val db = Database.withPrelude()
    db.consult(oracleTemplates)
    db.consult(MiningRules.all)
    db.consult(ConstraintMiner.facts(q, schema))
    ViewEnumerator.enumeration(q, new Solver(db))
  }

  test("once/1 in the templates changes no candidate, k-hop instantiation or selection") {
    forAll(workloads) { case (schema, workload) =>
      val withOnce = workload.map(ViewEnumerator.enumeration(_, schema))
      val withCall = workload.map(oracle(_, schema))
      withOnce.zip(withCall).foreach { case (e, o) =>
        assert(e.candidates.map(_.key) == o.candidates.map(_.key), e.query)
        assert(e.kHops == o.kHops, e.query)
        val fresh = ViewEnumerator.enumeration(e.query, new Solver(ViewEnumerator.buildDatabase(e.query, schema)))
        assert(e.kHops == fresh.kHops, e.query)
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
