package repro.graph

import org.apache.spark.sql.functions._

/** `GraphStats.compute` as a join of the vertices with an out-degree
  * aggregate, and the edge-type count after it: the reference that
  * `GraphStatsPropSpec` checks the join-free, concurrent profile against.
  */
object ReferenceStats {

  def compute(input: PropertyGraph): GraphStats = {
    val g = input.compact
    val outDeg = g.edges.groupBy("src").agg(count(lit(1)).as("outdeg"))
    val perVertex = g.vertices
      .join(outDeg, g.vertices("id") === outDeg("src"), "left")
      .select(col("vtype"), coalesce(col("outdeg"), lit(0L)).as("outdeg"))

    val rows = perVertex
      .groupBy("vtype")
      .agg(
        count(lit(1)).as("n"),
        percentile(col("outdeg"), lit(0.50)).as("d50"),
        percentile(col("outdeg"), lit(0.90)).as("d90"),
        percentile(col("outdeg"), lit(0.95)).as("d95"),
        max(col("outdeg")).cast("double").as("dmax"))
      .collect()

    val perType = rows.map { r =>
      TypeStats(r.getString(0), r.getLong(1), r.getDouble(2), r.getDouble(3),
        r.getDouble(4), r.getDouble(5))
    }.toSeq.sortBy(_.vtype)

    val byEtype = g.edges.groupBy("etype").agg(count(lit(1)).as("c")).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap

    GraphStats(perType.map(_.n).sum, byEtype.values.sum, perType, byEtype)
  }
}
