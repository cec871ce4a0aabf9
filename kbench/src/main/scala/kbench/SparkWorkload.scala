package kbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.Oracle
import repro.core.{CandidateView, CostModel, Kaskade, QueryRewriter, Rewriting, ViewSelector}
import repro.cypher.QueryGraph
import repro.engine.Queries
import repro.experiments.ExperimentUtil
import repro.graph.{GraphGen, GraphSchema, PropertyGraph}
import scala.util.Random

/** The two Spark workloads: the full pipeline from Cypher to rows.
  *
  * Set-up profiles the graph, enumerates and selects views for the query mix
  * and materializes every selected view. A pass then runs the mix: each
  * query is parsed, rewritten by `Kaskade.rewrite` and executed by
  * `engine.Queries` on the graph and hop budget of the chosen plan. The raw
  * pass runs the same queries on the base graph with the pattern's own hop
  * budget.
  */
object SparkWorkload {

  /** One query of the mix: which engine query answers it, and its Cypher. */
  final case class MixQuery(kind: String, cypher: String)

  final case class Spec(
      name: String,
      schema: GraphSchema,
      graph: (SparkSession, Long) => PropertyGraph,
      mix: Random => Seq[MixQuery],
      oracleOnQ1: Boolean,
  )

  /** View budget, in edges per base-graph edge (the paper's budget is a
    * share of memory, which is proportional).
    */
  val BudgetPerBaseEdge = 7L

  /** Rounds that start with a timed set-up. The first runs in a cold JVM
    * and its set-up is up to 1.4x slower: it runs no passes, and the set-up
    * median leaves it out.
    */
  val SetupRounds = 3

  /** Rounds with a timed pass on each plan kind, at least: an odd number, so
    * that the median is one round's pass.
    */
  val PassRounds = 3

  /** Planner calls for the plan latency percentiles, after three times as
    * many untimed ones: the solver's code is not yet compiled after set-up.
    */
  val PlanSamples = 500

  private def names(rnd: Random, base: Seq[String]): Seq[String] = {
    val tag = rnd.alphanumeric.filter(_.isLetter).take(2).mkString.toLowerCase
    base.map(b => s"${b}_$tag")
  }

  /** Summarized provenance graph with the paper's Q1 (Lst. 1) at `[*0..0]`:
    * two edge hops, which Kaskade rewrites to one hop over the Job→Job 2-hop
    * connector. Deeper bounds, Q2 (ancestors) and Q3 (descendants) do not
    * fit the benchmark's time budget: every hop costs about a second here,
    * and a run must stay short enough on a loaded host. Below about 230
    * jobs the selector trades the connector for the source-to-sink one, so
    * there is no smaller size for smoke runs.
    */
  val prov: Spec = Spec(
    name = "prov-views",
    schema = GraphSchema.provSummarized,
    graph = (spark, seed) => GraphGen.provSummarized(spark, nJobs = 256, seed = seed),
    mix = rnd => {
      val Seq(j1, f1, f2, j2) = names(rnd, Seq("j1", "f1", "f2", "j2"))
      Seq(MixQuery("q1",
        s"""MATCH ($j1:Job) -[:WRITES_TO]-> ($f1:File),
           |      ($f1:File) -[r*0..0]-> ($f2:File),
           |      ($f2:File) -[:IS_READ_BY]-> ($j2:Job)
           |RETURN $j1 AS root, $j2 AS reached""".stripMargin))
    },
    oracleOnQ1 = true,
  )

  /** Homogeneous power-law graph with the same query kinds on `Node`. */
  def soc(tiny: Boolean): Spec = Spec(
    name = "soc-views",
    schema = GraphSchema.homogeneous(),
    graph = (spark, seed) => GraphGen.socLivejournal(spark, nVertices = if (tiny) 100 else 300, seed = seed),
    mix = rnd => {
      def q(kind: String, hi: Int, ancestors: Boolean): MixQuery = {
        val Seq(a, b) = names(rnd, Seq("a", "b"))
        val ret = if (ancestors) s"$b AS root, $a AS ancestor" else s"$a AS root, $b AS reached"
        MixQuery(kind, s"MATCH ($a:Node) -[r*1..$hi]-> ($b:Node) RETURN $ret")
      }
      rnd.shuffle(Seq(q("q1", 3, ancestors = false), q("q2", 1, ancestors = true),
        q("q3", 1, ancestors = false)))
    },
    oracleOnQ1 = false,
  )

  /** The engine query for a mix entry, anchored on the type of the first
    * returned pattern variable.
    */
  def execute(kind: String, q: QueryGraph, g: PropertyGraph, hops: Int): DataFrame = {
    val anchor = q.vertexLabels(q.returns.head.variable)
      .getOrElse(throw new IllegalArgumentException("anchor variable has no label"))
    kind match {
      case "q1" => Queries.q1BlastRadius(g, anchor, hops)
      case "q2" => Queries.q2Ancestors(g, anchor, hops)
      case "q3" => Queries.q3Descendants(g, anchor, hops)
    }
  }

  /** Rows in a comparable form: doubles to 6 decimals, sorted. */
  def canon(rows: Array[Row]): Seq[String] =
    rows.toSeq.map(_.toSeq.map {
      case d: Double => f"$d%.6f"
      case x         => String.valueOf(x)
    }.mkString("|")).sorted

  /** DuckDB reference for the blast-radius query on the base graph. */
  def q1Reference(hops: Int): String =
    s"""WITH RECURSIVE reach(root, v, d) AS (
       |  SELECT id, id, 0 FROM jobs
       |  UNION
       |  SELECT r.root, e.dst, r.d + 1 FROM reach r JOIN e ON r.v = e.src WHERE r.d < $hops
       |),
       |pairs AS (SELECT DISTINCT root, v FROM reach WHERE root <> v),
       |jmeta AS (SELECT id, CAST(cpu AS DOUBLE) AS cpu, grp FROM vmeta WHERE vtype = 'Job'),
       |perroot AS (
       |  SELECT p.root, SUM(j.cpu) AS t_cpu FROM pairs p JOIN jmeta j ON p.v = j.id GROUP BY p.root
       |)
       |SELECT j.grp AS grp, AVG(pr.t_cpu) AS avg_cpu
       |FROM perroot pr JOIN jmeta j ON pr.root = j.id GROUP BY j.grp""".stripMargin

  /** What a query runs on: its pattern, the graph and the hop budget. */
  final case class Plan(q: QueryGraph, graph: PropertyGraph, hops: Int)

  /** Built state of one set-up: the Kaskade instance and its views' sizes. */
  final case class Setup(kas: Kaskade, viewEdges: Map[String, Long], estimated: Map[String, Double])

  def run(spec: Spec, args: Main.Args, report: Report): Unit = {
    implicit val spark: SparkSession = ExperimentUtil.session(s"kbench-${spec.name}")
    val counters = if (args.trace) Some(new SparkCounters(spark.sparkContext)) else None
    counters.foreach(spark.sparkContext.addSparkListener)
    val tracer = new Tracer(args.trace, counters)
    val mix = spec.mix(new Random(args.seed))
    Log(s"master=${spark.sparkContext.master} " +
      s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")}")
    mix.foreach(m => Log(s"mix ${m.kind}: ${m.cypher.replaceAll("\\s+", " ")}"))

    val base = spec.graph(spark, args.seed).cache()
    val baseEdges = base.edges.count()
    Log(s"base graph: ${base.vertices.count()} vertices, $baseEdges edges")

    def setup(): Setup = tracer.span("setup") {
      val stats = tracer.span("stats")(repro.graph.GraphStats.compute(base))
      val kas = new Kaskade(spec.schema, stats)
      val parsed = mix.map(m => tracer.span("parse")(kas.parse(m.cypher)))
      val candidates = parsed.flatMap { q =>
        tracer.spanWith("enumerate", (c: Seq[CandidateView]) => Map("candidates" -> c.size.toDouble))(
          kas.enumerate(q))
      }
      val chosen = tracer.spanWith("select", (c: Seq[ViewSelector.ScoredView]) => Map("chosen" -> c.size.toDouble))(
        kas.selectViews(parsed, BudgetPerBaseEdge * baseEdges))
      val built = chosen.flatMap { sv =>
        report.attempt(s"materialize ${sv.view.key}") {
          tracer.spanWith("materialize", (e: Long) => Map("edges" -> e.toDouble)) {
            val g = kas.materialize(sv.view, base)
            g.vertices.count()
            g.edges.count()
          }
        }.map(sv.view.key -> _)
      }.toMap
      tracer.spanWith("setup.summary", (_: Unit) => Map(
        "candidates" -> candidates.map(_.key).distinct.size.toDouble,
        "unbuildable" -> (chosen.size - built.size).toDouble))(())
      Log(s"selected ${chosen.map(_.view.key).mkString(", ")}; built ${built.mkString(", ")}")
      Setup(kas, built, chosen.map(sv => sv.view.key -> sv.size).toMap)
    }

    def teardown(s: Setup): Unit = s.kas.materialized.foreach(v => s.kas.viewGraph(v).foreach(_.unpersist()))

    /** Collects garbage and gives Spark's cleaner a moment to drop what
      * earlier steps released, so that work does not land inside the next
      * timing.
      */
    def settle(): Unit = { System.gc(); Thread.sleep(250) }

    /** The plan Kaskade picks for a query: parse, then rewrite. */
    def chosenPlan(s: Setup)(m: MixQuery): Plan = {
      val q = tracer.span("parse")(s.kas.parse(m.cypher))
      val rw = tracer.spanWith("rewrite", (r: Option[Rewriting]) => Map("hit" -> (if (r.isDefined) 1.0 else 0.0)))(
        s.kas.rewrite(q))
      rw match {
        case Some(r) =>
          require(r.hopsLo == 1, s"engine queries start at hop 1, plan needs ${r.hopsLo}")
          Plan(q, s.kas.viewGraph(r.view).get, r.hopsHi)
        case None => Plan(q, base, CostModel.hopBudget(q))
      }
    }

    /** The raw plan: the base graph with the pattern's own hop budget. */
    def rawPlan(m: MixQuery): Plan = {
      val q = tracer.span("parse")(repro.cypher.CypherParser.parse(m.cypher))
      Plan(q, base, CostModel.hopBudget(q))
    }

    /** Runs the mix; returns the pass time and each query's result. The
      * engine's part of each query is traced as `<layer>.<kind>`.
      */
    def pass(name: String, plan: MixQuery => Plan, layer: String): (Double, Seq[Option[(DataFrame, Array[Row])]]) = {
      val t0 = System.nanoTime()
      val results = tracer.span(name)(mix.map { m =>
        report.attempt(s"${m.kind} $name") {
          val p = plan(m)
          tracer.spanWith(s"$layer.${m.kind}", (_: (DataFrame, Array[Row])) => Map("hops" -> p.hops.toDouble)) {
            val df = execute(m.kind, p.q, p.graph, p.hops)
            df -> df.collect()
          }
        }
      })
      ((System.nanoTime() - t0) / 1e9, results)
    }

    // Rounds: a timed set-up, then an untimed pass on the chosen plans, then
    // a timed pass on the chosen plans and one on the raw plans. The first
    // pass after a set-up ran 10-30% slower than the next, whichever plan
    // kind it was; the untimed pass takes that. The cold first round only
    // sets up. Later rounds run their passes on the last set-up's views,
    // until there are `PassRounds` and `--seconds` has passed. Spreading the
    // passes over the run, between set-ups, makes the medians average over
    // more of the host's speed changes than passes run back to back would.
    // After each round, outside the timings, every rewritten result must
    // equal the raw one.
    val (setupRounds, passRounds) = if (args.tiny) (1, 1) else (SetupRounds, PassRounds)
    val setupTimes, viewPass, rawPass = scala.collection.mutable.ArrayBuffer.empty[Double]
    var current: Option[Setup] = None
    var ownInPasses = 0L
    var firstRawQ1: Option[(DataFrame, Array[Row])] = None
    val tStart = System.nanoTime()
    var i = 0
    while (i < setupRounds || viewPass.size < passRounds || (System.nanoTime() - tStart) / 1e9 < args.seconds) {
      if (i < setupRounds) {
        current.foreach(teardown)
        settle()
        val t0 = System.nanoTime()
        current = Some(setup())
        setupTimes += (System.nanoTime() - t0) / 1e9
      }
      if (i > 0 || setupRounds == 1) {
        val s = current.get
        settle()
        if (i < setupRounds) pass("warmup.view", chosenPlan(s), "warmup")
        val (u0, own0) = (Usage.now(), tracer.ownNanos)
        val v = pass("pass.view", chosenPlan(s), "execute")
        val r = pass("pass.raw", rawPlan, "raw")
        ownInPasses += tracer.ownNanos - own0
        Log(f"round $i: view ${v._1}%.3f s, raw ${r._1}%.3f s; ${Usage.now() - u0}")
        viewPass += v._1
        rawPass += r._1
        // A query that threw is already counted as failed; compare the rest.
        for (((m, Some(vr)), Some(rr)) <- mix.zip(v._2).zip(r._2)) {
          report.check(s"${m.kind} chosen plan equals raw plan")(canon(vr._2) == canon(rr._2))
          if (m.kind == "q1" && firstRawQ1.isEmpty) firstRawQ1 = Some(rr)
        }
      }
      i += 1
    }
    val state = current.get
    Log(f"setup_s samples: ${setupTimes.map(t => f"$t%.3f").mkString(" ")}")
    Log(f"query_s samples: ${viewPass.map(t => f"$t%.3f").mkString(" ")}")
    Log(f"raw_query_s samples: ${rawPass.map(t => f"$t%.3f").mkString(" ")}; " +
      f"view_speedup (Fig. 7 ratio) ${Stat.speedup(viewPass.toSeq, rawPass.toSeq)}%.2f")

    // Planner latency, traced runs only: Cypher → parse → rewrite decision
    // over the built views (their sizes as materialized), without running
    // the query.
    val planMs = if (!args.trace) Nil else (0 until 4 * PlanSamples).flatMap { i =>
      val m = mix(i % mix.size)
      report.attempt(s"plan ${m.kind}") {
        val t0 = System.nanoTime()
        val q = repro.cypher.CypherParser.parse(m.cypher)
        QueryRewriter.rewrite(q, spec.schema, state.kas.stats, state.kas.materialized, state.viewEdges)
        (System.nanoTime() - t0) / 1e6
      }
    }.drop(3 * PlanSamples)

    // The raw blast-radius result against DuckDB's recursive CTE.
    if (spec.oracleOnQ1) mix.find(_.kind == "q1").foreach { m =>
      report.check("raw q1 equals the DuckDB reference")(firstRawQ1.exists { case (df, rows) =>
        Oracle.assertEquivalent(spark.createDataFrame(java.util.Arrays.asList(rows: _*), df.schema),
          q1Reference(CostModel.hopBudget(repro.cypher.CypherParser.parse(m.cypher))),
          "e" -> base.edges.select("src", "dst"),
          "jobs" -> base.verticesOfType("Job").select("id"),
          "vmeta" -> base.vertices)
        true
      })
      Log("oracle checked")
    }

    if (!args.trace) {
      report.metric("setup_s", Stat.median(setupTimes.toSeq), "s")
      report.metric("view_speedup", Stat.speedup(viewPass.toSeq, rawPass.toSeq), "ratio")
      report.metric("view_space_ratio", state.viewEdges.values.sum.toDouble / baseEdges, "ratio")
    } else {
      LayerMetrics.report(tracer, report, planMs, viewPass.toSeq, rawPass.toSeq,
        overheadPct = LayerMetrics.overheadPct(ownInPasses / 1e9, viewPass.sum + rawPass.sum),
        viewEstimated = state.estimated.filter(e => state.viewEdges.contains(e._1)).values.sum,
        viewActual = state.viewEdges.values.sum.toDouble)
    }
    args.spans.foreach(tracer.write)
    counters.foreach(spark.sparkContext.removeSparkListener)
    spark.stop()
  }
}
