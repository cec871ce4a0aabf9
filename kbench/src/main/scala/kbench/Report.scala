package kbench

/** Order statistics and the JSON result line. */
object Stat {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Median over passes run side by side of raw-plan time ÷ chosen-plan
    * time. Both passes of a pair see the same host speed, so the ratio
    * holds still when that speed changes between runs.
    */
  def speedup(viewPass: Seq[Double], rawPass: Seq[Double]): Double =
    median(rawPass.zip(viewPass).map { case (r, v) => r / v })

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted.toIndexedSeq
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"non-finite metric value $v")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
}

/** What one run reports: operations attempted and failed, whether every
  * checked result matched its reference, and named metrics with units.
  */
final class Report {
  private var metricsOut = Vector.empty[(String, Double, String)]
  var attempted = 0L
  var failed = 0L
  var mismatches = 0L

  def metric(name: String, value: Double, unit: String): Unit =
    metricsOut :+= ((name, value, unit))

  /** Run one operation; an exception counts it as failed and returns None. */
  def attempt[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case e: Exception =>
        failed += 1
        Log(s"FAILED $what: ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }
  }

  /** A result check: a mismatch is both a failed operation and incorrect. */
  def check(what: String)(ok: => Boolean): Unit =
    attempt(what)(ok) match {
      case Some(true) => ()
      case Some(false) =>
        failed += 1; mismatches += 1
        Log(s"MISMATCH $what")
      case None => mismatches += 1
    }

  def json: String = {
    val ms = metricsOut.map { case (n, v, u) =>
      s"${Json.str(n)}: {${Json.str("value")}: ${Json.num(v)}, ${Json.str("unit")}: ${Json.str(u)}}"
    }
    s"""{"correct": ${mismatches == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Progress and diagnostics go to stderr, stamped with seconds since start;
  * stdout carries only the result.
  */
object Log {
  private val t0 = System.nanoTime()
  def apply(msg: String): Unit = System.err.println(f"[kbench ${(System.nanoTime() - t0) / 1e9}%6.1fs] $msg")
}
