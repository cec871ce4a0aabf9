package repro.experiments

import org.apache.spark.sql.SparkSession

/** Shared helpers for the table/figure reproduction harnesses. */
object ExperimentUtil {

  /** Wall-clock milliseconds of `body`, the median of `runs` runs, with the
    * last run's value. The action must itself force evaluation (count/collect).
    */
  def timeMs[A](runs: Int = 3)(body: => A): (A, Double) = {
    require(runs >= 1, s"timeMs needs at least one run, got $runs")
    val timed = (1 to runs).map { _ =>
      val t0 = System.nanoTime()
      val a = body
      (a, (System.nanoTime() - t0) / 1e6)
    }
    (timed.last._1, median(timed.map(_._2)))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2.0
  }

  /** Render rows as a fixed-width text table. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
  }

  def fmtCount(x: Double): String =
    if (x >= 1e9) f"${x / 1e9}%.2fG"
    else if (x >= 1e6) f"${x / 1e6}%.2fM"
    else if (x >= 1e3) f"${x / 1e3}%.2fk"
    else f"$x%.1f"

  def fmtCount(x: Long): String = fmtCount(x.toDouble)

  /** Local SparkSession for job entrypoints (tests use SparkSpec instead).
    *
    * It keeps 64 shuffle partitions and broadcast joins off, while `SparkSpec`
    * uses one shuffle partition per core: the base graphs that kbench
    * generates take their layout from this setting, and its Fig. 7 ratio
    * (`view_speedup`) is measured on them. Kaskade's own set-up runs at one
    * partition per core (`PropertyGraph.compact`). Measured on kbench's
    * `prov-views` (4 vCPU, seeds 1–2, one run each), one shuffle partition
    * per core here cut `setup_s` to 2.67 / 3.04 s, but it also shrank the
    * base layout, so the raw plan sped up and `view_speedup` fell from 3.82
    * to 2.28 / 2.27; turning broadcast joins on for the whole session moved
    * `view_speedup` to 3.14 / 3.42, since it changes the raw plan too. So the
    * session stays broadcast-off, and only Kaskade's set-up hints its type-id
    * semi-joins with `broadcast(...)` (DESIGN.md § 1, set-up join rule): over
    * 10 alternating pairs on `prov-views` (4 vCPU, seeds 601–610) that cut
    * the median `setup_s` from 2.45 to 1.93 s, with `view_speedup` at 3.85
    * and 3.93. Changing either setting is a benchmark change that
    * re-baselines, not a set-up optimisation.
    */
  def session(app: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
