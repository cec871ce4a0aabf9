package repro.core

import org.scalacheck.Gen
import repro.cypher.{CypherParser, QueryGraph}
import repro.graph.{GraphSchema, GraphStats, TypeStats}

/** Random chain patterns over the built-in schemas, for the property tests
  * that compare two ways of enumerating, rewriting and selecting.
  */
object ChainPatterns {

  val schemas: Seq[GraphSchema] = Seq(GraphSchema.provRaw, GraphSchema.provSummarized, GraphSchema.dblpRaw,
    GraphSchema.dblpSummarized, GraphSchema.homogeneous())

  /** A chain of 1..3 segments from a random vertex type: each segment is a
    * schema edge out of the current type, or a variable-length path with
    * bounds in 0..4 to a random type. Returns the ends, and sometimes a
    * middle vertex. Its variables are `v0, v1, …` along the chain.
    */
  def chain(schema: GraphSchema): Gen[String] = for {
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

  /** Statistics with every vertex type and every edge type the same size. */
  def uniformStats(s: GraphSchema): GraphStats =
    GraphStats(100L * s.vertexTypes.size, 300L * s.edgeTypes.size,
      s.vertexTypes.map(t => TypeStats(t, 100L, 2.0, 4.0, 5.0, 12.0)), s.edgeTypes.map(_ -> 300L).toMap)

  /** A schema and a workload of one to three chains on it. */
  val workloads: Gen[(GraphSchema, Seq[QueryGraph])] = for {
    schema <- Gen.oneOf(schemas)
    n <- Gen.choose(1, 3)
    qs <- Gen.listOfN(n, chain(schema))
  } yield (schema, qs.map(CypherParser.parse))
}
