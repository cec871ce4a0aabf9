package kbench

/** Per-layer metrics of a traced run, derived from its spans. A layer the
  * workload never calls (Spark layers on plan-mix) reports 0.
  */
object LayerMetrics {

  /** Tracing overhead of the timed passes, in percent: the tracer's own
    * time over the rest of the passes' time.
    */
  def overheadPct(ownSeconds: Double, passSeconds: Double): Double =
    if (passSeconds <= ownSeconds) 0.0 else 100 * ownSeconds / (passSeconds - ownSeconds)

  /** `planMs` are planner latencies: Cypher → parse → rewrite decision.
    * `viewPass` and `rawPass` are the timed passes on the chosen and the
    * raw plans, in seconds.
    */
  def report(
      tracer: Tracer,
      report: Report,
      planMs: Seq[Double],
      viewPass: Seq[Double],
      rawPass: Seq[Double],
      overheadPct: Double,
      viewEstimated: Double,
      viewActual: Double,
  ): Unit = {
    def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stat.median(xs)
    def secs(name: String): Seq[Double] = tracer.named(name).map(_.seconds)
    def count(name: String, key: String): Seq[Double] = tracer.named(name).map(_.counts.getOrElse(key, 0.0))
    /** Per parent span of `parent`, the sum of `key` over its `child` spans. */
    def perParent(parent: String, child: String => Boolean, f: Span => Double): Seq[Double] = {
      val parents = tracer.named(parent).map(_.id).toSet
      val all = parents.toSeq.map(_ -> 0.0).toMap
      val sums = tracer.spans.filter(s => child(s.name) && parents(s.parent))
        .groupMapReduce(_.parent)(f)(_ + _)
      (all ++ sums).values.toSeq
    }
    val isExecute = (n: String) => n.startsWith("execute.")
    val executes = tracer.spans.filter(s => isExecute(s.name))
    val executeJobs = executes.map(_.counts.getOrElse("spark_jobs", 0.0)).sum
    val executeHops = executes.map(_.counts.getOrElse("hops", 0.0)).sum

    report.metric("query_s", Stat.median(viewPass), "s")
    report.metric("raw_query_s", Stat.median(rawPass), "s")
    report.metric("plan_p50_ms", if (planMs.isEmpty) 0.0 else Stat.quantile(planMs, 0.50), "ms")
    report.metric("plan_p95_ms", if (planMs.isEmpty) 0.0 else Stat.quantile(planMs, 0.95), "ms")
    report.metric("parse.ms", 1e3 * med(secs("parse")), "ms")
    report.metric("enumerate.ms", 1e3 * med(secs("enumerate")), "ms")
    report.metric("enumerate.candidates", med(perParent("setup", _ == "enumerate",
      _.counts.getOrElse("candidates", 0.0))), "count")
    report.metric("select.ms", 1e3 * med(secs("select")), "ms")
    report.metric("select.candidates", med(count("setup.summary", "candidates")), "count")
    report.metric("select.chosen", med(count("select", "chosen")), "count")
    report.metric("select.chosen_unbuildable", med(count("setup.summary", "unbuildable")), "count")
    report.metric("stats.s", med(secs("stats")), "s")
    report.metric("stats.spark_jobs", med(count("stats", "spark_jobs")), "count")
    report.metric("materialize.s", med(perParent("setup", _ == "materialize", _.seconds)), "s")
    report.metric("materialize.spark_jobs", med(perParent("setup", _ == "materialize",
      _.counts.getOrElse("spark_jobs", 0.0))), "count")
    report.metric("materialize.shuffle_mb", med(perParent("setup", _ == "materialize",
      _.counts.getOrElse("shuffle_mb", 0.0))), "MB")
    report.metric("materialize.failed", med(count("setup.summary", "unbuildable")), "count")
    report.metric("view.edges", viewActual, "count")
    report.metric("view.est_over_actual", if (viewActual > 0) viewEstimated / viewActual else 0.0, "ratio")
    report.metric("rewrite.ms", 1e3 * med(secs("rewrite")), "ms")
    val hits = count("rewrite", "hit")
    report.metric("rewrite.hit_rate", if (hits.isEmpty) 0.0 else hits.sum / hits.size, "ratio")
    for (k <- Seq("q1", "q2", "q3"))
      report.metric(s"execute.${k}_s", med(secs(s"execute.$k")), "s")
    for ((key, unit) <- Seq("spark_jobs" -> "count", "stages" -> "count", "tasks" -> "count",
        "shuffle_mb" -> "MB"))
      report.metric(s"execute.$key", med(perParent("pass.view", isExecute, _.counts.getOrElse(key, 0.0))), unit)
    report.metric("execute.jobs_per_hop", if (executeHops > 0) executeJobs / executeHops else 0.0, "jobs/hop")
    report.metric("jvm.gc_s", JvmStats.gcSeconds, "s")
    report.metric("jvm.heap_peak_mb", JvmStats.heapPeakMb, "MB")
    report.metric("trace.overhead_pct", overheadPct, "%")
  }
}
