package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph

/** Graph-view primitives on DataFrames: summarizers (filters) and connectors
  * (path contractions), plus path counting and bounded traversal (the
  * building blocks of the paper's § III-C / § VI view classes).
  *
  * Connector edges carry `ts` = max timestamp along the contracted path and
  * `paths` = path multiplicity; `ts` composes under further traversal, which
  * is what makes Q4's rewriting over the view exact.
  */
object GraphOps {

  /** Vertex-inclusion summarizer: keep vertices of `keepTypes` and edges with
    * both endpoints kept (Table II, row 3).
    */
  def vertexInclusionSummarizer(g: PropertyGraph, keepTypes: Seq[String]): PropertyGraph = {
    val v = g.vertices.filter(col("vtype").isin(keepTypes: _*))
    val ids = v.select(col("id"))
    val e = g.edges
      .join(ids.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
      .join(ids.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
      .select("src", "dst", "etype", "ts")
    PropertyGraph(v, e)
  }

  /** Vertex-removal summarizer: drop vertices of `removeTypes` and their
    * incident edges (Table II, row 1).
    */
  def vertexRemovalSummarizer(g: PropertyGraph, removeTypes: Seq[String]): PropertyGraph = {
    val v = g.vertices.filter(!col("vtype").isin(removeTypes: _*))
    val ids = v.select(col("id"))
    val e = g.edges
      .join(ids.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
      .join(ids.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
      .select("src", "dst", "etype", "ts")
    PropertyGraph(v, e)
  }

  /** Edge-inclusion summarizer: keep only edges of `keepEtypes` (vertices are
    * preserved; Table II, row 4).
    */
  def edgeInclusionSummarizer(g: PropertyGraph, keepEtypes: Seq[String]): PropertyGraph =
    PropertyGraph(g.vertices, g.edges.filter(col("etype").isin(keepEtypes: _*)))

  /** Edge-removal summarizer (Table II, row 2). */
  def edgeRemovalSummarizer(g: PropertyGraph, removeEtypes: Seq[String]): PropertyGraph =
    PropertyGraph(g.vertices, g.edges.filter(!col("etype").isin(removeEtypes: _*)))

  /** All k-hop path endpoints with aggregated properties: rows
    * `(src, cur, ts)` for every k-length walk with distinct consecutive
    * vertices and distinct endpoints.
    */
  private def kHopPaths(edges: DataFrame, k: Int): DataFrame = {
    require(k >= 1, "k must be positive")
    val noLoops = edges.filter(col("src") =!= col("dst"))
    var paths = noLoops.select(col("src"), col("dst").as("cur"), col("ts"))
    for (_ <- 2 to k) {
      val e = noLoops.select(col("src").as("_s"), col("dst").as("_d"), col("ts").as("_t"))
      paths = paths
        .join(e, col("cur") === col("_s"))
        .filter(col("_d") =!= col("cur")) // no immediate backtrack to same id
        .select(col("src"), col("_d").as("cur"), greatest(col("ts"), col("_t")).as("ts"))
    }
    paths.filter(col("src") =!= col("cur"))
  }

  /** Exact number of k-length simple-endpoint paths (self-loops excluded,
    * endpoints distinct) — the quantity Ê(G,k,α) estimates (§ V-A). For the
    * Fig. 5 experiment k=2, where this equals the simple-path count exactly.
    *
    * k=2 avoids materializing the join: the count is
    * `Σ_v indeg(v)·outdeg(v) − |mutual edge pairs|`, which stays cheap even
    * when hubs make the join output huge (power-law graphs at bench scale).
    */
  def countKHopPaths(g: PropertyGraph, k: Int): Long =
    if (k == 2) {
      val e = g.edges.filter(col("src") =!= col("dst")).select("src", "dst")
      val indeg = e.groupBy(col("dst").as("v")).agg(count(lit(1)).as("ind"))
      val outdeg = e.groupBy(col("src").as("v")).agg(count(lit(1)).as("outd"))
      val through = indeg.join(outdeg, Seq("v"))
        .agg(coalesce(sum(col("ind") * col("outd")), lit(0L)))
        .collect()(0).getLong(0)
      val mutual = e
        .join(e.select(col("dst").as("src"), col("src").as("dst")), Seq("src", "dst"), "left_semi")
        .count()
      through - mutual
    } else kHopPaths(g.edges, k).count()

  /** Materialize a k-hop connector view between `srcType` and `dstType`
    * vertices (Table I). Edges are deduplicated per (src, dst) pair with
    * `ts` = max over contracted paths and `paths` = multiplicity; the view's
    * vertex set is the vertices of the endpoint types.
    *
    * `label` becomes the view's edge type, e.g. `2_HOP_JOB_TO_JOB` (Lst. 4).
    */
  def kHopConnector(
      g: PropertyGraph,
      k: Int,
      srcType: String,
      dstType: String,
      label: String,
  ): PropertyGraph = {
    val srcIds = g.verticesOfType(srcType).select(col("id").as("_src_id"))
    val dstIds = g.verticesOfType(dstType).select(col("id").as("_dst_id"))
    val contracted = kHopPaths(g.edges, k)
      .join(srcIds, col("src") === col("_src_id"), "left_semi")
      .join(dstIds, col("cur") === col("_dst_id"), "left_semi")
      .groupBy(col("src"), col("cur").as("dst"))
      .agg(max(col("ts")).as("ts"), count(lit(1)).as("paths"))
      .select(col("src"), col("dst"), lit(label).as("etype"), col("ts"), col("paths"))
    val viewVertices = g.vertices.filter(col("vtype").isin(Seq(srcType, dstType).distinct: _*))
    PropertyGraph(viewVertices, contracted)
  }

  /** Source-to-sink connector (Table I, row 4): contracts full paths between
    * vertices with no incoming edges and vertices with no outgoing edges,
    * bounded at `maxHops` (termination bound for cyclic inputs).
    */
  def sourceToSinkConnector(g: PropertyGraph, maxHops: Int, label: String): PropertyGraph = {
    val sources = g.vertices
      .join(g.edges.select(col("dst").as("id")).distinct(), Seq("id"), "left_anti")
      .select(col("id"))
    val sinks = g.vertices
      .join(g.edges.select(col("src").as("id")).distinct(), Seq("id"), "left_anti")
      .select(col("id"))
    pathContraction(g, sources, sinks, g.edges, maxHops, label)
  }

  /** Bounded path contraction, the connector of Table I rows 1, 3 and 4: one
    * `label` edge per (source, sink) pair of distinct vertices joined by a
    * walk of 1..`maxHops` `edges`, with `ts` = max timestamp over the walks
    * and `paths` = their number. `sources` and `sinks` are `id` columns; the
    * view's vertices are theirs. `maxHops` ends the walk on cyclic inputs.
    */
  def pathContraction(g: PropertyGraph, sources: DataFrame, sinks: DataFrame, edges: DataFrame,
      maxHops: Int, label: String): PropertyGraph = {
    val e = edges.select(col("src").as("_s"), col("dst").as("_d"), col("ts").as("_t"))
    var frontier = sources.select(
      col("id").as("src"), col("id").as("cur"), lit(0L).as("ts"), lit(1L).as("paths"))
    var acc = frontier
    for (_ <- 1 to maxHops) {
      frontier = frontier
        .join(e, col("cur") === col("_s"))
        .select(col("src"), col("_d").as("cur"),
          greatest(col("ts"), col("_t")).as("ts"), col("paths"))
        .groupBy("src", "cur").agg(max("ts").as("ts"), sum("paths").as("paths"))
        .localCheckpoint()
      acc = acc.union(frontier)
    }
    val contracted = acc
      .join(sinks.withColumnRenamed("id", "cur"), Seq("cur"), "left_semi")
      .filter(col("src") =!= col("cur"))
      .groupBy(col("src"), col("cur").as("dst"))
      .agg(max("ts").as("ts"), sum("paths").as("paths"))
      .select(col("src"), col("dst"), lit(label).as("etype"), col("ts"), col("paths"))

    val endpointIds = sources.union(sinks).distinct()
    PropertyGraph(g.vertices.join(endpointIds, Seq("id"), "left_semi"), contracted)
  }

  /** Multi-source bounded reachability: all distinct `(root, v)` pairs with a
    * directed path of 1..maxHops edges from root to v. Backbone of Q1–Q3.
    *
    * @param reversed follow edges backwards (ancestors, Q2).
    */
  def reachablePairs(
      edges: DataFrame,
      roots: DataFrame,
      maxHops: Int,
      reversed: Boolean = false,
  ): DataFrame = {
    val e0 =
      if (reversed) edges.select(col("dst").as("_s"), col("src").as("_d"))
      else edges.select(col("src").as("_s"), col("dst").as("_d"))
    val e = e0.localCheckpoint()

    var frontier = roots.select(col("id").as("root"), col("id").as("v")).localCheckpoint()
    var visited = frontier
    var hop = 0
    var frontierNonEmpty = true
    while (hop < maxHops && frontierNonEmpty) {
      frontier = frontier
        .join(e, col("v") === col("_s"))
        .select(col("root"), col("_d").as("v"))
        .distinct()
        .join(visited, Seq("root", "v"), "left_anti")
        .localCheckpoint()
      frontierNonEmpty = !frontier.isEmpty
      if (frontierNonEmpty) visited = visited.union(frontier).localCheckpoint()
      hop += 1
    }
    visited.filter(col("root") =!= col("v"))
  }
}
