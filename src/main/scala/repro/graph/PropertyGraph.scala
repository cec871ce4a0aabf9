package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A property graph as a pair of DataFrames (paper § III-A).
  *
  * Vertices: `id: Long, vtype: String, cpu: Double, grp: String`. The `cpu`
  * and `grp` columns stand in for the property bag of the paper's model —
  * `cpu` is the numeric property queries aggregate over (CPU-hours for prov
  * jobs, generic weight elsewhere), `grp` is the grouping property
  * (`pipelineName` for prov, venue for dblp, region otherwise).
  *
  * Edges: `src: Long, dst: Long, etype: String, ts: Long`; `ts` is the edge
  * timestamp that Q4 aggregates along paths. Connector views reuse the same
  * edge schema plus a `paths: Long` multiplicity column.
  */
final case class PropertyGraph(vertices: DataFrame, edges: DataFrame) {

  def vertexCount: Long = vertices.count()
  def edgeCount: Long = edges.count()

  /** Vertices of one type (e.g. all jobs). */
  def verticesOfType(vtype: String): DataFrame = vertices.filter(col("vtype") === vtype)

  /** Edges of one type. */
  def edgesOfType(etype: String): DataFrame = edges.filter(col("etype") === etype)

  /** Both sides coalesced to one partition per core (`defaultParallelism`),
    * with no shuffle and no cache. A side with that few partitions keeps its
    * layout. Kaskade runs its own Spark work on this layout, whatever layout
    * its input has (DESIGN.md § 1, item 7). Each side gets a plan of its
    * own, so caching the result never shares a cache entry with this graph.
    */
  def compact: PropertyGraph = {
    val parallelism = edges.sparkSession.sparkContext.defaultParallelism
    PropertyGraph(vertices.coalesce(parallelism), edges.coalesce(parallelism))
  }

  /** Cache both sides (benchmarks materialize before timing). */
  def cache(): PropertyGraph = PropertyGraph(vertices.cache(), edges.cache())

  def unpersist(): Unit = { vertices.unpersist(); edges.unpersist() }
}

object PropertyGraph {

  /** Build a graph from in-memory sequences (tests). */
  def of(
      spark: SparkSession,
      vertices: Seq[(Long, String, Double, String)],
      edges: Seq[(Long, Long, String, Long)],
  ): PropertyGraph = {
    import spark.implicits._
    PropertyGraph(
      vertices.toDF("id", "vtype", "cpu", "grp"),
      edges.toDF("src", "dst", "etype", "ts"))
  }
}
