package repro.graph

import org.apache.spark.sql.functions._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Per-vertex-type statistics Kaskade maintains at load time (paper § V-A):
  * vertex cardinality and coarse out-degree distribution summaries
  * (50th/90th/95th percentile and max out-degree).
  */
final case class TypeStats(
    vtype: String,
    n: Long,
    deg50: Double,
    deg90: Double,
    deg95: Double,
    degMax: Double,
) {

  /** α-th percentile out-degree; α ∈ {50, 90, 95, 100}. */
  def degAt(alpha: Int): Double = alpha match {
    case 50  => deg50
    case 90  => deg90
    case 95  => deg95
    case 100 => degMax
    case other => throw new IllegalArgumentException(s"unsupported percentile $other")
  }
}

/** Whole-graph statistics: totals plus per-type summaries. */
final case class GraphStats(
    vertexCount: Long,
    edgeCount: Long,
    perType: Seq[TypeStats],
    edgeTypeCounts: Map[String, Long] = Map.empty,
) {

  def typeStats(vtype: String): TypeStats =
    perType.find(_.vtype == vtype)
      .getOrElse(TypeStats(vtype, 0L, 0, 0, 0, 0))

  /** Statistics pooled over all types, for homogeneous-estimator use. */
  def pooled: TypeStats =
    perType match {
      case Seq(single) => single
      case _ =>
        // Weighted blend is not meaningful for percentiles; callers on
        // heterogeneous graphs should use perType via Eq. 3 instead.
        TypeStats("ALL", vertexCount,
          perType.map(_.deg50).maxOption.getOrElse(0),
          perType.map(_.deg90).maxOption.getOrElse(0),
          perType.map(_.deg95).maxOption.getOrElse(0),
          perType.map(_.degMax).maxOption.getOrElse(0))
    }
}

object GraphStats {

  /** Compute stats with exact percentiles (datasets here are bench-scale).
    *
    * Zero-out-degree vertices count toward the distribution — the α-th
    * percentile is over *all* vertices of the type, matching "out-degree for
    * each vertex type of the raw graph". Vertex ids are unique. One
    * aggregation of `vertices ∪ edges` by `id` gives each vertex its type and
    * out-degree, with no join; an edge whose `src` is no vertex is dropped.
    * The union is coalesced to one partition per core, as its sides are.
    * The edge-type count runs alongside it in a `Future` that is awaited
    * before the call returns, also when the profile throws. The profile
    * reads `g.compact`, so its scans run one task per core whatever layout
    * `g` has; one call runs 5 Spark jobs on kbench's `prov-views` and in
    * `GraphStatsSpec`.
    */
  def compute(input: PropertyGraph): GraphStats = {
    val g = input.compact
    val byEtype = Future(g.edges.groupBy("etype").agg(count(lit(1)).as("c")).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap)(ExecutionContext.global)
    val perType =
      try profile(g)
      finally Await.ready(byEtype, Duration.Inf)
    val edgeTypeCounts = Await.result(byEtype, Duration.Inf)
    GraphStats(perType.map(_.n).sum, edgeTypeCounts.values.sum, perType, edgeTypeCounts)
  }

  /** Per-type vertex count and out-degree percentiles, sorted by type. */
  private def profile(g: PropertyGraph): Seq[TypeStats] = {
    val perVertex = g.vertices.select(col("id"), col("vtype"), lit(0L).as("out"))
      .union(g.edges.select(col("src").as("id"), lit(null).cast("string").as("vtype"), lit(1L).as("out")))
      .coalesce(g.edges.sparkSession.sparkContext.defaultParallelism)
      .groupBy("id")
      .agg(max("vtype").as("vtype"), sum("out").as("outdeg"))
      .filter(col("vtype").isNotNull)

    perVertex
      .groupBy("vtype")
      .agg(
        count(lit(1)).as("n"),
        percentile(col("outdeg"), lit(0.50)).as("d50"),
        percentile(col("outdeg"), lit(0.90)).as("d90"),
        percentile(col("outdeg"), lit(0.95)).as("d95"),
        max(col("outdeg")).cast("double").as("dmax"))
      .collect()
      .map(r => TypeStats(r.getString(0), r.getLong(1), r.getDouble(2), r.getDouble(3), r.getDouble(4), r.getDouble(5)))
      .toSeq.sortBy(_.vtype)
  }
}
