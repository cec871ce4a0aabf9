package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CandidateView, KHopConnectorView, SameEdgeTypeConnectorView, SameVertexTypeConnectorView,
  SourceToSinkConnectorView}
import repro.graph.PropertyGraph

/** The connector builds as they were before their type-id semi-joins were
  * broadcast: shuffled joins, and a distinct endpoint-id set. They are the
  * reference that `HintedBuildPropSpec` checks the hinted builds against.
  */
object UnhintedBuilds {

  def build(view: CandidateView, g: PropertyGraph): PropertyGraph = view match {
    case v @ KHopConnectorView(st, dt, k) =>
      val walks = GraphOps.kHopPaths(g.edges, k)
        .join(g.verticesOfType(st).select(col("id").as("src")), Seq("src"), "left_semi")
      PropertyGraph(g.vertices.filter(col("vtype").isin(Seq(st, dt).distinct: _*)),
        contract(walks, ids(g, dt), v.label))
    case SameVertexTypeConnectorView(t, maxHops) =>
      pathContraction(g, ids(g, t), ids(g, t), g.edges, maxHops, s"${t.toUpperCase}_TO_${t.toUpperCase}")
    case SameEdgeTypeConnectorView(st, dt, et) =>
      pathContraction(g, ids(g, st), ids(g, dt), g.edgesOfType(et), CandidateView.UnboundedPathHops, s"VIA_$et")
    case SourceToSinkConnectorView(st, dt) =>
      def without(vtype: String, end: String) =
        ids(g, vtype).join(g.edges.select(col(end).as("id")).distinct(), Seq("id"), "left_anti")
      pathContraction(g, without(st, "dst"), without(dt, "src"), g.edges, CandidateView.UnboundedPathHops,
        "SOURCE_TO_SINK")
    case other => throw new IllegalArgumentException(s"no unhinted build for ${other.key}")
  }

  private def ids(g: PropertyGraph, vtype: String) = g.verticesOfType(vtype).select(col("id"))

  private def pathContraction(g: PropertyGraph, sources: DataFrame, sinks: DataFrame, edges: DataFrame,
      maxHops: Int, label: String): PropertyGraph = {
    val seed = sources.select(
      col("id").as("src"), col("id").as("cur"), lit(0L).as("ts"), lit(1L).as("paths"))
    val walks = GraphOps.frontiers(seed, edges, maxHops)((moved, _) =>
      moved.groupBy("src", "cur").agg(max("ts").as("ts"), sum("paths").as("paths"))).reduce(_ union _)
    val endpointIds = sources.union(sinks).distinct()
    PropertyGraph(g.vertices.join(endpointIds, Seq("id"), "left_semi"), contract(walks, sinks, label))
  }

  private def contract(walks: DataFrame, sinks: DataFrame, label: String): DataFrame =
    walks
      .join(sinks.withColumnRenamed("id", "cur"), Seq("cur"), "left_semi")
      .filter(col("src") =!= col("cur"))
      .groupBy(col("src"), col("cur").as("dst"))
      .agg(max("ts").as("ts"), sum("paths").as("paths"))
      .select(col("src"), col("dst"), lit(label).as("etype"), col("ts"), col("paths"))
}
