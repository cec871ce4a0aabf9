package kbench

import repro.graph.{GraphStats, TypeStats}

/** `GraphStats.compute` output for one generator call per schema, so that
  * plan-mix plans against realistic statistics without starting Spark:
  * provRaw(nJobs=64), provSummarized(nJobs=256),
  * dblp(nAuthors=2000, includeVenues=false) and socLivejournal(nVertices=1000),
  * all at their default seeds.
  */
object MeasuredStats {
  val provRaw = GraphStats(13440L, 40374L, Seq(
    TypeStats("File", 512L, 3.0, 3.0, 3.0, 3.0),
    TypeStats("Job", 64L, 208.0, 208.0, 208.0, 208.0),
    TypeStats("Machine", 64L, 0.0, 0.0, 0.0, 0.0),
    TypeStats("Task", 12800L, 2.0, 2.0, 2.0, 2.0)),
    Map("IS_READ_BY" -> 1526L, "RUNS_ON" -> 12800L, "SPAWNS" -> 12800L, "TRANSFERS_TO" -> 12736L,
      "WRITES_TO" -> 512L))

  val provSummarized = GraphStats(2304L, 8162L, Seq(
    TypeStats("File", 2048L, 3.0, 3.0, 3.0, 3.0),
    TypeStats("Job", 256L, 8.0, 8.0, 8.0, 8.0)),
    Map("IS_READ_BY" -> 6114L, "WRITES_TO" -> 2048L))

  val dblpSummarized = GraphStats(5000L, 11962L, Seq(
    TypeStats("Author", 2000L, 0.0, 4.0, 16.0, 86.0),
    TypeStats("Publication", 3000L, 2.0, 3.0, 3.0, 3.0)),
    Map("WRITTEN_BY" -> 5981L, "WROTE" -> 5981L))

  val homogeneous = GraphStats(1000L, 15136L, Seq(
    TypeStats("Node", 1000L, 10.0, 25.100000000000023, 37.049999999999955, 549.0)),
    Map("LINK" -> 15136L))
}
