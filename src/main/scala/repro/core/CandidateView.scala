package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{broadcast, col}
import repro.cypher.QueryGraph
import repro.engine.GraphOps
import repro.graph.{GraphSchema, GraphStats, PropertyGraph}
import repro.prolog.{Atom, Num, Term}

/** A candidate graph view produced by view enumeration (§ IV-B): an
  * instantiation of a view template, translatable to the Cypher query that
  * materializes it (§ V-B). Each view type is defined here: its template
  * (companion), Table I/II row, estimated size (§ V-A) and build.
  */
sealed trait CandidateView {

  /** Stable identity for deduplication and selection. */
  def key: String

  /** Cypher query that materializes this view (as Kaskade's workload
    * analyzer would submit to the execution engine).
    */
  def toCypher: String

  /** The paper table listing this view type, and the type's name there. */
  def tableRow: (String, String)

  /** Estimated size (edge count) of the view when materialized (§ V-A). */
  def estimatedSize(stats: GraphStats, schema: GraphSchema): Double

  /** Materialize the view over `g` on the execution engine. */
  def build(g: PropertyGraph): PropertyGraph
}
object CandidateView {

  /** A view template (§ IV-B, Lst. 3): the goal the enumerator asks the
    * solver, and the candidate that one solution's bindings name, if any.
    */
  final class Template[+V <: CandidateView](
      val goal: String,
      val instantiate: (Map[String, Term], QueryGraph) => Option[V])

  /** The view library, in the order the enumerator runs it. */
  val templates: Seq[Template[CandidateView]] = Seq(
    KHopConnectorView.template, SameVertexTypeConnectorView.template, SourceToSinkConnectorView.template,
    SameEdgeTypeConnectorView.template, VertexInclusionSummarizerView.template,
    EdgeInclusionSummarizerView.template, VertexRemovalSummarizerView.template, EdgeRemovalSummarizerView.template)

  /** Hop bound of the connectors over unbounded (`*`) paths, which ends
    * their contraction on cyclic inputs.
    */
  val UnboundedPathHops = 16

  private[core] def atomName(t: Term): String = t match {
    case Atom(n) => n
    case other   => other.show
  }

  private[core] def int(t: Term): Int = t match {
    case Num(v) => v.toInt
    case other  => throw new IllegalStateException(s"expected integer, got ${other.show}")
  }

  /** The label of the query vertex bound to `t`, if it has one. */
  private[core] def vertexLabel(q: QueryGraph, t: Term): Option[String] = q.vertexLabels.get(atomName(t)).flatten

  /** Edges of the schema edge types whose endpoint types both pass `keep`. */
  private[core] def edgesBetween(stats: GraphStats, schema: GraphSchema)(keep: String => Boolean): Double =
    schema.edges.filter(e => keep(e.srcType) && keep(e.dstType))
      .map(e => stats.edgeTypeCounts.getOrElse(e.etype, 0L)).sum.toDouble

  private[core] def ids(g: PropertyGraph, vtype: String) = g.verticesOfType(vtype).select(col("id"))

  /** The vertices that pass `keep`, and the edges between them. */
  private[core] def induced(g: PropertyGraph, keep: Column): PropertyGraph = {
    val v = g.vertices.filter(keep)
    val kept = v.select(col("id"))
    val e = g.edges
      .join(kept.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
      .join(kept.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
      .select("src", "dst", "etype", "ts")
    PropertyGraph(v, e)
  }
}

import CandidateView._

/** Contraction of k-hop paths between two vertex types (Table I, row 2;
  * Fig. 3). `label` is the contracted edge type, e.g. `2_HOP_JOB_TO_JOB`
  * as in the paper's Lst. 4. Each (src, dst) pair gets one edge, with `ts`
  * the max over its contracted walks and `paths` their number; the view's
  * vertices are those of the endpoint types. The walks are semi-joined with
  * the broadcast source and sink ids (DESIGN.md § 1, set-up join rule).
  */
final case class KHopConnectorView(srcType: String, dstType: String, k: Int) extends CandidateView {
  def label: String = s"${k}_HOP_${srcType.toUpperCase}_TO_${dstType.toUpperCase}"
  def sameVertexType: Boolean = srcType == dstType
  override def key: String = s"kHopConnector($srcType,$dstType,$k)"
  override def toCypher: String =
    s"MATCH (x:$srcType)-[p*$k..$k]->(y:$dstType) " +
      s"RETURN x, y, max(p.ts) AS ts // CREATE (x)-[:$label]->(y)"
  override def tableRow: (String, String) =
    ("Table I", if (sameVertexType) "k-hop same-vertex-type connector" else "k-hop connector")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    SizeEstimator.estimate(stats, schema, k, CostModel.DefaultAlpha)
  override def build(g: PropertyGraph): PropertyGraph = {
    val walks = GraphOps.kHopPaths(g.edges, k)
      .join(broadcast(g.verticesOfType(srcType).select(col("id").as("src"))), Seq("src"), "left_semi")
    val viewVertices = g.vertices.filter(col("vtype").isin(Seq(srcType, dstType).distinct: _*))
    PropertyGraph(viewVertices, GraphOps.contract(walks, ids(g, dstType), label))
  }
}
object KHopConnectorView {
  val template = new Template("kHopConnector(X, Y, XT, YT, K)", (m, _) =>
    Some(KHopConnectorView(atomName(m("XT")), atomName(m("YT")), int(m("K"))))
      .filter(_.k <= ViewEnumerator.MaxConnectorHops))
}

/** Variable-length same-vertex-type connector (Table I, row 1). */
final case class SameVertexTypeConnectorView(vtype: String, maxHops: Int = 8) extends CandidateView {
  private def label = s"${vtype.toUpperCase}_TO_${vtype.toUpperCase}"
  override def key: String = s"connectorSameVertexType($vtype)"
  override def toCypher: String =
    s"MATCH (x:$vtype)-[p*1..$maxHops]->(y:$vtype) RETURN x, y // CREATE (x)-[:$label]->(y)"
  override def tableRow: (String, String) = ("Table I", "Same-vertex-type connector")
  // Bounded by the pairs reachable within maxHops; approximated by the k-hop
  // estimate at the median hop count.
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    SizeEstimator.estimate(stats, schema, math.max(1, maxHops / 2), CostModel.DefaultAlpha)
  override def build(g: PropertyGraph): PropertyGraph =
    GraphOps.pathContraction(g, ids(g, vtype), ids(g, vtype), g.edges, maxHops, label)
}
object SameVertexTypeConnectorView {
  val template = new Template("connectorSameVertexType(X, Y, T)", (m, _) =>
    Some(SameVertexTypeConnectorView(atomName(m("T")))))
}

/** Source-to-sink connector (Table I, row 4): contracts the paths from
  * `srcType` vertices with no in-edges to `dstType` vertices with no
  * out-edges, bounded at [[CandidateView.UnboundedPathHops]].
  */
final case class SourceToSinkConnectorView(srcType: String, dstType: String) extends CandidateView {
  override def key: String = s"sourceToSinkConnector($srcType,$dstType)"
  override def toCypher: String =
    s"MATCH (x:$srcType)-[p*]->(y:$dstType) WHERE NOT ()-->(x) AND NOT (y)-->() " +
      "RETURN x, y // CREATE (x)-[:SOURCE_TO_SINK]->(y)"
  override def tableRow: (String, String) = ("Table I", "Source-to-sink connector")
  // At most |sources| × |sinks| contracted edges.
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    stats.typeStats(srcType).n.toDouble * math.max(1L, stats.typeStats(dstType).n)
  override def build(g: PropertyGraph): PropertyGraph = {
    def without(vtype: String, end: String) =
      ids(g, vtype).join(g.edges.select(col(end).as("id")).distinct(), Seq("id"), "left_anti")
    GraphOps.pathContraction(g, sources = without(srcType, "dst"), sinks = without(dstType, "src"), g.edges,
      UnboundedPathHops, "SOURCE_TO_SINK")
  }
}
object SourceToSinkConnectorView {
  val template = new Template("sourceToSinkConnector(X, Y)", (m, q) =>
    for (st <- vertexLabel(q, m("X")); dt <- vertexLabel(q, m("Y"))) yield SourceToSinkConnectorView(st, dt))
}

/** Connector over paths of a single edge type (Table I, row 3). */
final case class SameEdgeTypeConnectorView(srcType: String, dstType: String, etype: String)
    extends CandidateView {
  override def key: String = s"sameEdgeTypeConnector($srcType,$dstType,$etype)"
  override def toCypher: String =
    s"MATCH (x:$srcType)-[:$etype*]->(y:$dstType) RETURN x, y // CREATE (x)-[:VIA_$etype]->(y)"
  override def tableRow: (String, String) = ("Table I", "Same-edge-type connector")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    stats.edgeTypeCounts.getOrElse(etype, stats.edgeCount).toDouble
  override def build(g: PropertyGraph): PropertyGraph =
    GraphOps.pathContraction(g, ids(g, srcType), ids(g, dstType), g.edgesOfType(etype),
      UnboundedPathHops, s"VIA_$etype")
}
object SameEdgeTypeConnectorView {
  val template = new Template("sameEdgeTypeConnector(X, Y, E)", (m, q) =>
    for (st <- vertexLabel(q, m("X")); dt <- vertexLabel(q, m("Y")))
      yield SameEdgeTypeConnectorView(st, dt, atomName(m("E"))))
}

/** Keep only the listed vertex types (and induced edges) — the schema-level
  * summarizer of § VII-E (Table II, row 3).
  */
final case class VertexInclusionSummarizerView(vtypes: Seq[String]) extends CandidateView {
  override def key: String = s"summarizerVertexInclusion(${vtypes.sorted.mkString(",")})"
  override def toCypher: String =
    s"MATCH (x) WHERE ${vtypes.map(t => s"x:$t").mkString(" OR ")} RETURN x // plus induced edges"
  override def tableRow: (String, String) = ("Table II", "Vertex-inclusion summarizer")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    edgesBetween(stats, schema)(vtypes.contains)
  override def build(g: PropertyGraph): PropertyGraph = induced(g, col("vtype").isin(vtypes: _*))
}
object VertexInclusionSummarizerView {
  val template = new Template("summarizerVertexInclusion(TS)", (m, _) =>
    Term.asListOption(m("TS")).map(ts => VertexInclusionSummarizerView(ts.map(atomName))))
}

/** Keep only the listed edge types, and every vertex (Table II, row 4). */
final case class EdgeInclusionSummarizerView(etypes: Seq[String]) extends CandidateView {
  override def key: String = s"summarizerEdgeInclusion(${etypes.sorted.mkString(",")})"
  override def toCypher: String =
    s"MATCH (x)-[e]->(y) WHERE ${etypes.map(t => s"e:$t").mkString(" OR ")} RETURN x, e, y"
  override def tableRow: (String, String) = ("Table II", "Edge-inclusion summarizer")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    etypes.map(e => stats.edgeTypeCounts.getOrElse(e, 0L)).sum.toDouble
  override def build(g: PropertyGraph): PropertyGraph =
    PropertyGraph(g.vertices, g.edges.filter(col("etype").isin(etypes: _*)))
}
object EdgeInclusionSummarizerView {
  val template = new Template("summarizerEdgeInclusion(ES)", (m, _) =>
    Term.asListOption(m("ES")).map(es => EdgeInclusionSummarizerView(es.map(atomName))))
}

/** Remove one vertex type and its incident edges (Table II, row 1). */
final case class VertexRemovalSummarizerView(vtype: String) extends CandidateView {
  override def key: String = s"summarizerRemoveVertices($vtype)"
  override def toCypher: String = s"MATCH (x) WHERE NOT x:$vtype RETURN x // plus induced edges"
  override def tableRow: (String, String) = ("Table II", "Vertex-removal summarizer")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    edgesBetween(stats, schema)(_ != vtype)
  override def build(g: PropertyGraph): PropertyGraph = induced(g, col("vtype") =!= vtype)
}
object VertexRemovalSummarizerView {
  val template = new Template("summarizerRemoveVertices(T)", (m, _) =>
    Some(VertexRemovalSummarizerView(atomName(m("T")))))
}

/** Remove one edge type (Table II, row 2). */
final case class EdgeRemovalSummarizerView(etype: String) extends CandidateView {
  override def key: String = s"summarizerRemoveEdges($etype)"
  override def toCypher: String = s"MATCH (x)-[e]->(y) WHERE NOT e:$etype RETURN x, e, y"
  override def tableRow: (String, String) = ("Table II", "Edge-removal summarizer")
  override def estimatedSize(stats: GraphStats, schema: GraphSchema): Double =
    (stats.edgeCount - stats.edgeTypeCounts.getOrElse(etype, 0L)).toDouble
  override def build(g: PropertyGraph): PropertyGraph =
    PropertyGraph(g.vertices, g.edges.filter(col("etype") =!= etype))
}
object EdgeRemovalSummarizerView {
  val template = new Template("summarizerRemoveEdges(E)", (m, _) =>
    Some(EdgeRemovalSummarizerView(atomName(m("E")))))
}
