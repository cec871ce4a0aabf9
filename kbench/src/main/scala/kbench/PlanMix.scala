package kbench

import repro.core.{CandidateView, Kaskade, QueryRewriter, Rewriting, ViewSelector}
import repro.cypher.CypherParser
import repro.graph.{GraphSchema, GraphStats, TypeStats}
import scala.util.Random

/** The planning-only workload: no Spark. A seeded stream of Cypher patterns
  * over four schemas goes through parse and the rewrite decision; set-up is
  * view enumeration and workload-level selection per schema. All the work is
  * in the `cypher`, `prolog` and `core` layers.
  */
object PlanMix {

  /** Pool members per query class; the pool holds 10 classes × 8 = 80. */
  val PerClass = 8

  /** Zipf exponent over a class's members (rank r repeats ∝ 1/r^s). */
  val Skew = 1.0

  /** Most frequent members per class that join their schema's selection workload. */
  val SelectPerClass = 3

  /** Stream queries per pass: rounds of one query per class. */
  val PassSize = 500

  val SetupReps = 3
  val MinPasses = 5

  /** The same view budget as the Spark workloads, per base edge. */
  val BudgetPerBaseEdge: Long = SparkWorkload.BudgetPerBaseEdge

  /** A schema and the graph statistics the planner sees for it. */
  final case class Domain(name: String, schema: GraphSchema, stats: GraphStats)

  /** A query class: one pattern shape on one schema. Members differ in
    * hop bounds, `lo ∈ {loMin, loMin+1}` and `hi ∈ {hi0-1, hi0, hi0+1}`, and
    * in their seeded variable names. The bounds drive the solver's work, so
    * they are tied to the member's rank: every seed's stream then has the
    * same planning cost, and the seed varies names and the draw order.
    */
  final case class QueryClass(domain: Domain, loMin: Int, hi0: Int, render: (String, String) => String)

  val provRaw = Domain("provRaw", GraphSchema.provRaw, MeasuredStats.provRaw)
  val provSummarized = Domain("provSummarized", GraphSchema.provSummarized, MeasuredStats.provSummarized)
  val dblp = Domain("dblpSummarized", GraphSchema.dblpSummarized, MeasuredStats.dblpSummarized)
  val homogeneous = Domain("homogeneous", GraphSchema.homogeneous(), MeasuredStats.homogeneous)
  val domains = Seq(provRaw, provSummarized, dblp, homogeneous)

  /** `render(tag, bounds)`: the tag suffixes variable names, bounds is `lo..hi`. */
  val classes: Seq[QueryClass] = Seq(
    QueryClass(provRaw, 0, 4, (t, b) => s"MATCH (j1$t:Job)-[:WRITES_TO]->(f1$t:File), " +
      s"(f1$t:File)-[r*$b]->(f2$t:File), (f2$t:File)-[:IS_READ_BY]->(j2$t:Job) RETURN j1$t, j2$t"),
    QueryClass(provRaw, 0, 3, (t, b) => s"MATCH (j$t:Job)-[:SPAWNS]->(t$t:Task), " +
      s"(t$t:Task)-[r*$b]->(u$t:Task), (u$t:Task)-[:RUNS_ON]->(m$t:Machine) RETURN j$t, m$t"),
    QueryClass(provRaw, 1, 4, (t, b) => s"MATCH (t$t:Task)-[r*$b]->(u$t:Task) RETURN t$t, u$t"),
    QueryClass(provSummarized, 0, 6, (t, b) => s"MATCH (j1$t:Job)-[:WRITES_TO]->(f1$t:File), " +
      s"(f1$t:File)-[r*$b]->(f2$t:File), (f2$t:File)-[:IS_READ_BY]->(j2$t:Job) RETURN j1$t, j2$t"),
    QueryClass(provSummarized, 1, 4, (t, b) => s"MATCH (a$t:Job)-[r*$b]->(b$t:Job) RETURN a$t, b$t"),
    QueryClass(provSummarized, 0, 3, (t, b) => s"MATCH (f$t:File)-[:IS_READ_BY]->(j$t:Job), " +
      s"(j$t:Job)-[r*$b]->(g$t:File) RETURN f$t, g$t"),
    QueryClass(dblp, 1, 4, (t, b) => s"MATCH (a$t:Author)-[r*$b]->(b$t:Author) RETURN a$t, b$t"),
    QueryClass(dblp, 0, 4, (t, b) => s"MATCH (a1$t:Author)-[:WROTE]->(p1$t:Publication), " +
      s"(p1$t:Publication)-[r*$b]->(p2$t:Publication), (p2$t:Publication)-[:WRITTEN_BY]->(a2$t:Author) " +
      s"RETURN a1$t, a2$t"),
    QueryClass(homogeneous, 1, 4, (t, b) => s"MATCH (a$t:Node)-[r*$b]->(b$t:Node) RETURN a$t, b$t"),
    QueryClass(homogeneous, 0, 3, (t, b) => s"MATCH (a$t:Node)-[:LINK]->(b$t:Node), " +
      s"(b$t:Node)-[r*$b]->(c$t:Node) RETURN a$t, c$t"),
  )

  /** Per class, `PerClass` distinct members in rank order. */
  def pool(rnd: Random): Seq[IndexedSeq[String]] = classes.map { c =>
    (0 until PerClass).foldLeft(IndexedSeq.empty[String]) { (acc, rank) =>
      val hi = c.hi0 - 1 + rank % 3
      val lo = math.min(hi, c.loMin + rank / 3 % 2)
      acc :+ Iterator.continually {
        val tag = "_" + rnd.alphanumeric.filter(_.isLetter).take(3).mkString.toLowerCase
        c.render(tag, s"$lo..$hi")
      }.find(q => !acc.contains(q)).get
    }
  }

  /** The ranks of `n` draws from one class: rank r gets its Zipf share
    * ∝ 1/r^s of the draws, rounded by largest remainder. Every pass thus
    * repeats the same members equally often, and so costs the same.
    */
  def rankQuota(n: Int): IndexedSeq[Int] = {
    val w = (1 to PerClass).map(r => 1.0 / math.pow(r, Skew))
    val exact = w.map(_ * n / w.sum)
    val floors = exact.map(_.toInt)
    val extra = exact.indices.sortBy(r => floors(r) - exact(r)).take(n - floors.sum).toSet
    exact.indices.flatMap(r => IndexedSeq.fill(floors(r) + (if (extra(r)) 1 else 0))(r))
  }

  def run(args: Main.Args, report: Report): Unit = {
    val rnd = new Random(args.seed)
    val members = pool(rnd)
    val ranks = rankQuota(PassSize / classes.size)
    /** One pass: rounds of one query per class, classes in random order;
      * each class's ranks follow [[rankQuota]] in a seeded order.
      */
    def batch(): IndexedSeq[(Domain, String)] = {
      val perClass = classes.indices.map(_ => rnd.shuffle(ranks).iterator)
      IndexedSeq.fill(ranks.size)(rnd.shuffle(classes.indices.toList))
        .flatten.map(c => classes(c).domain -> members(c)(perClass(c).next()))
    }
    Log(s"pool=${classes.size} classes x $PerClass members, " +
      s"zipf s=$Skew within a class (quota ${ranks.groupBy(identity).toSeq.sortBy(_._1).map(_._2.size).mkString(",")}), " +
      s"pass=${ranks.size * classes.size}")
    val tracer = new Tracer(args.trace, None)

    /** Per domain: its selected views (the catalog the rewriter sees). */
    def setup(): Map[String, Seq[(CandidateView, Double)]] = tracer.span("setup") {
      val catalogs = domains.map { d =>
        val kas = new Kaskade(d.schema, d.stats)
        val workload = classes.zip(members).filter(_._1.domain == d)
          .flatMap(_._2.take(SelectPerClass)).map(c => tracer.span("parse")(kas.parse(c)))
        val candidates = workload.flatMap(q =>
          tracer.spanWith("enumerate", (c: Seq[CandidateView]) => Map("candidates" -> c.size.toDouble))(kas.enumerate(q)))
        val chosen = report.attempt(s"select ${d.name}")(
          tracer.spanWith("select", (c: Seq[ViewSelector.ScoredView]) => Map("chosen" -> c.size.toDouble))(
            kas.selectViews(workload, BudgetPerBaseEdge * d.stats.edgeCount))).getOrElse(Nil)
        (d.name, candidates.map(_.key).distinct.size, chosen.map(sv => sv.view -> sv.size))
      }
      tracer.spanWith("setup.summary", (_: Unit) => Map(
        "candidates" -> catalogs.map(_._2).sum.toDouble,
        "chosen" -> catalogs.map(_._3.size).sum.toDouble))(())
      catalogs.map(c => c._1 -> c._3).toMap
    }

    // An untimed set-up first: the solver's code is still warming up.
    setup()
    // Timed set-ups; the last one's catalog serves the passes.
    val setups = (1 to (if (args.tiny) 1 else SetupReps)).map { _ =>
      val t0 = System.nanoTime()
      val catalog = setup()
      (catalog, (System.nanoTime() - t0) / 1e9)
    }
    val setupTimes = setups.map(_._2)
    val catalog = setups.last._1
    catalog.foreach { case (d, vs) => Log(s"$d catalog: ${vs.map(_._1.key).mkString(", ")}") }
    Log(f"setup_s samples: ${setupTimes.map(t => f"$t%.3f").mkString(" ")}")

    /** Plans one query; returns its latency in ms. */
    def plan(d: Domain, cypher: String, views: Seq[CandidateView]): Option[Double] =
      report.attempt(s"plan ${d.name}") {
        val t0 = System.nanoTime()
        val q = tracer.span("parse")(CypherParser.parse(cypher))
        tracer.spanWith("rewrite", (r: Option[Rewriting]) => Map("hit" -> (if (r.isDefined) 1.0 else 0.0)))(
          QueryRewriter.rewrite(q, d.schema, d.stats, views))
        (System.nanoTime() - t0) / 1e6
      }

    val viewPass, rawPass = scala.collection.mutable.ArrayBuffer.empty[Double]
    val planMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    // One pass of warm-up on both plan kinds.
    batch().foreach { case (d, c) => plan(d, c, catalog(d.name).map(_._1)); plan(d, c, Nil) }

    val ownAtStart = tracer.ownNanos
    val usageAtStart = Usage.now()
    val tStart = System.nanoTime()
    var i = 0
    val minPasses = if (args.tiny) 1 else MinPasses
    while ((System.nanoTime() - tStart) / 1e9 < args.seconds || rawPass.size < minPasses) {
      val queries = batch()
      def viewRun(): Unit = {
        val lat = tracer.span("pass.view")(queries.flatMap { case (d, c) => plan(d, c, catalog(d.name).map(_._1)) })
        planMs ++= lat
        viewPass += lat.sum / 1e3
      }
      def rawRun(): Unit =
        rawPass += tracer.span("pass.raw")(queries.flatMap { case (d, c) => plan(d, c, Nil) }).sum / 1e3
      if (i % 2 == 0) { viewRun(); rawRun() } else { rawRun(); viewRun() }
      i += 1
    }
    Log(s"timed passes: ${Usage.now() - usageAtStart}")
    Log(f"${planMs.size} plan samples; query_s samples: ${viewPass.map(t => f"$t%.3f").mkString(" ")}")
    Log(f"raw_query_s samples: ${rawPass.map(t => f"$t%.3f").mkString(" ")}")

    if (!args.trace) {
      val viewEdges = catalog.values.flatten.map(_._2).sum
      report.metric("setup_s", Stat.median(setupTimes), "s")
      report.metric("view_speedup", Stat.speedup(viewPass.toSeq, rawPass.toSeq), "ratio")
      report.metric("view_space_ratio", viewEdges / domains.map(_.stats.edgeCount).sum, "ratio")
    } else {
      LayerMetrics.report(tracer, report, planMs.toSeq, viewPass.toSeq, rawPass.toSeq,
        overheadPct = LayerMetrics.overheadPct((tracer.ownNanos - ownAtStart) / 1e9, viewPass.sum + rawPass.sum),
        viewEstimated = 0, viewActual = 0)
    }
    args.spans.foreach(tracer.write)
  }
}
