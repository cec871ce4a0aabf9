package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSampling
import repro.core.ChainPatterns.{uniformStats, workloads}
import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.GraphSchema
import repro.prolog.Solver
import scala.util.Random

/** The enumeration memo, keyed by (schema, canonical pattern), must answer
  * exactly what a fresh solver run over the caller's own pattern answers,
  * under any names the caller picks.
  */
class EnumerationMemoSpec extends AnyFunSuite with PropSampling {
  override def samples: Int = 60

  private def fresh(q: QueryGraph, schema: GraphSchema): ViewEnumerator.Enumeration =
    ViewEnumerator.enumeration(q, new Solver(ViewEnumerator.buildDatabase(q, schema)))

  /** Caller names: some need quoting as Prolog atoms (`J1`, `Zed_2`), and
    * some are the canonical names themselves, on other vertices.
    */
  private val names = Seq("v0", "v1", "v2", "v3", "v4", "J1", "Zed_2", "q_j1", "a", "x9")

  /** A random bijection from `q`'s variables onto [[names]]. */
  private def renaming(q: QueryGraph): Gen[Map[String, String]] = for {
    picked <- Gen.pick(q.vertexNames.size, names)
    seed <- Gen.long
  } yield q.vertexNames.zip(new Random(seed).shuffle(picked.toList)).toMap

  private val renamedWorkloads = for {
    (schema, workload) <- workloads
    renamings <- Gen.sequence[List[Map[String, String]], Map[String, String]](workload.map(renaming))
  } yield (schema, workload, workload.zip(renamings).map { case (q, r) => q.renamed(r) })

  test("memoized and fresh enumerations agree on renamed patterns: candidates, k-hops, rewritings, selection") {
    forAll(renamedWorkloads) { case (schema, workload, renamed) =>
      val stats = uniformStats(schema)
      workload.foreach(ViewEnumerator.enumeration(_, schema))
      val before = ViewEnumerator.memoCounts
      val memoized = renamed.map(ViewEnumerator.enumeration(_, schema))
      assert(ViewEnumerator.memoCounts.hits == before.hits + renamed.size, renamed)
      val runs = renamed.map(fresh(_, schema))
      memoized.zip(runs).foreach { case (m, f) =>
        assert(m.query == f.query)
        assert(m.candidates == f.candidates, m.query)
        assert(m.kHops == f.kHops, m.query)
        assert(QueryRewriter.rewritings(m.query, ViewEnumerator.kHopInstantiations(m.query, schema), schema, stats,
          f.candidates) == QueryRewriter.rewritings(f.query, f.kHops, schema, stats, f.candidates), m.query)
      }
      val budget = 7L * stats.edgeCount
      assert(ViewSelector.select(renamed, schema, stats, budget) ==
        ViewSelector.selectEnumerated(runs, schema, stats, budget, None), renamed)
    }
  }

  test("a caller name that is another vertex's canonical name is read back as the caller's") {
    val q = CypherParser.parse("MATCH (v1:Job)-[:WRITES_TO]->(J1:File), (J1:File)-[r*0..4]->(v0:File), " +
      "(v0:File)-[:IS_READ_BY]->(x:Job) RETURN v1 AS a, x")
    val e = ViewEnumerator.enumeration(q, GraphSchema.provSummarized)
    assert(e.kHops.map(t => (t._1, t._2)).distinct == Seq(("v1", "x")))
    assert(e == fresh(q, GraphSchema.provSummarized))
  }

  private var flushed = 0

  /** Enumerates `n` shapes never seen before: one pattern over `n` new
    * one-edge-type schemas, each a separate memo key.
    */
  private def enumerateNewShapes(n: Int): Unit = {
    val q = CypherParser.parse("MATCH (a:Node)-[r*1..2]->(b:Node) RETURN a, b")
    (flushed until flushed + n).foreach(i => ViewEnumerator.enumeration(q, GraphSchema.homogeneous(s"FLUSH_$i")))
    flushed += n
  }

  test("a shape evicted after MemoCapacity newer ones is recomputed, and equals its first result") {
    val q = CypherParser.parse("MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[r*0..6]->(g:File), " +
      "(g:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")
    val first = ViewEnumerator.enumeration(q, GraphSchema.provRaw)
    val before = ViewEnumerator.memoCounts
    enumerateNewShapes(ViewEnumerator.MemoCapacity)
    val again = ViewEnumerator.enumeration(q, GraphSchema.provRaw)
    assert(ViewEnumerator.memoCounts.misses == before.misses + ViewEnumerator.MemoCapacity + 1)
    assert(again == first)
  }

  /** A pool shaped like the benchmark's `plan-mix`: 10 query classes over
    * four schemas, 8 members each. A member's bounds follow its rank r:
    * `hi = hi0 - 1 + r % 3` and `lo = min(hi, loMin + r / 3 % 2)`, so ranks 6
    * and 7 repeat the bounds of ranks 0 and 1, and a class has 6 shapes.
    */
  private val planMixClasses: Seq[(GraphSchema, Int, Int, (String, String) => String)] = Seq(
    (GraphSchema.provRaw, 0, 4, (t, b) => s"MATCH (j1$t:Job)-[:WRITES_TO]->(f1$t:File), " +
      s"(f1$t:File)-[r*$b]->(f2$t:File), (f2$t:File)-[:IS_READ_BY]->(j2$t:Job) RETURN j1$t, j2$t"),
    (GraphSchema.provRaw, 0, 3, (t, b) => s"MATCH (j$t:Job)-[:SPAWNS]->(t$t:Task), " +
      s"(t$t:Task)-[r*$b]->(u$t:Task), (u$t:Task)-[:RUNS_ON]->(m$t:Machine) RETURN j$t, m$t"),
    (GraphSchema.provRaw, 1, 4, (t, b) => s"MATCH (t$t:Task)-[r*$b]->(u$t:Task) RETURN t$t, u$t"),
    (GraphSchema.provSummarized, 0, 6, (t, b) => s"MATCH (j1$t:Job)-[:WRITES_TO]->(f1$t:File), " +
      s"(f1$t:File)-[r*$b]->(f2$t:File), (f2$t:File)-[:IS_READ_BY]->(j2$t:Job) RETURN j1$t, j2$t"),
    (GraphSchema.provSummarized, 1, 4, (t, b) => s"MATCH (a$t:Job)-[r*$b]->(b$t:Job) RETURN a$t, b$t"),
    (GraphSchema.provSummarized, 0, 3, (t, b) => s"MATCH (f$t:File)-[:IS_READ_BY]->(j$t:Job), " +
      s"(j$t:Job)-[r*$b]->(g$t:File) RETURN f$t, g$t"),
    (GraphSchema.dblpSummarized, 1, 4, (t, b) => s"MATCH (a$t:Author)-[r*$b]->(b$t:Author) RETURN a$t, b$t"),
    (GraphSchema.dblpSummarized, 0, 4, (t, b) => s"MATCH (a1$t:Author)-[:WROTE]->(p1$t:Publication), " +
      s"(p1$t:Publication)-[r*$b]->(p2$t:Publication), (p2$t:Publication)-[:WRITTEN_BY]->(a2$t:Author) " +
      s"RETURN a1$t, a2$t"),
    (GraphSchema.homogeneous(), 1, 4, (t, b) => s"MATCH (a$t:Node)-[r*$b]->(b$t:Node) RETURN a$t, b$t"),
    (GraphSchema.homogeneous(), 0, 3, (t, b) => s"MATCH (a$t:Node)-[:LINK]->(b$t:Node), " +
      s"(b$t:Node)-[r*$b]->(c$t:Node) RETURN a$t, c$t"),
  )

  /** The pool's members, rendered with variable-name suffix `tag`. */
  private def planMixPool(tag: String): Seq[(GraphSchema, String)] =
    for ((schema, loMin, hi0, render) <- planMixClasses; rank <- 0 until 8) yield {
      val hi = hi0 - 1 + rank % 3
      schema -> render(tag, s"${math.min(hi, loMin + rank / 3 % 2)}..$hi")
    }

  test("planning a plan-mix pool twice under fresh names runs the solver once per shape") {
    val shapes = planMixPool("").distinct.size
    assert(shapes == 10 * 6)
    enumerateNewShapes(ViewEnumerator.MemoCapacity) // no shape of the pool is left in the memo
    val before = ViewEnumerator.memoCounts
    for (tag <- Seq("_a", "_b"); (schema, cypher) <- planMixPool(tag))
      QueryRewriter.rewrite(CypherParser.parse(cypher), schema, uniformStats(schema), Nil)
    val after = ViewEnumerator.memoCounts
    assert(after.misses - before.misses == shapes)
    assert(after.hits - before.hits == 2 * 80 - shapes)
  }
}
