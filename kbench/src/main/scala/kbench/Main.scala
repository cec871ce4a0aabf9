package kbench

/** Benchmark entry point: one workload, one seed, one closed-loop client.
  *
  * {{{
  *   kbench.Main --workload prov-views|soc-views|plan-mix --seed N --seconds S
  *               --trace 0|1 [--size full|tiny] [--spans FILE]
  * }}}
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON
  * object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics untraced, per-layer metrics traced).
  */
object Main {

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      tiny: Boolean,
      spans: Option[java.nio.file.Path],
  )

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val size = kv.getOrElse("size", "full")
    require(Set("full", "tiny")(size), s"unknown --size $size")
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      size == "tiny", kv.get("spans").map(java.nio.file.Paths.get(_)))
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    Log(s"${args.workload} seed=${args.seed} seconds=${args.seconds} trace=${args.trace}")
    val report = new Report
    args.workload match {
      case "prov-views" => SparkWorkload.run(SparkWorkload.prov, args, report)
      case "soc-views"  => SparkWorkload.run(SparkWorkload.soc(args.tiny), args, report)
      case "plan-mix"   => PlanMix.run(args, report)
      case other        => throw new IllegalArgumentException(s"unknown workload $other")
    }
    println(report.json)
  }
}
