package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph

/** The paper's evaluation query workload Q1–Q8 (Table IV), each expressible
  * both over a (summarized) raw graph and over a 2-hop connector view — the
  * view formulation simply runs with half the hop budget on the contracted
  * edges (§ VII-C).
  *
  * Every query takes the graph it should run on; the caller picks raw vs.
  * view and the hop budget, exactly like the paper's rewritten Cypher
  * (Lst. 1 vs. Lst. 4).
  */
object Queries {

  /** Q1 — Job blast radius: for every vertex of `anchorType`, sum the `cpu`
    * of distinct downstream `anchorType` vertices within `maxHops` edge hops,
    * then average per `grp` (pipelineName). Returns `(grp, avg_cpu)`.
    */
  def q1BlastRadius(g: PropertyGraph, anchorType: String, maxHops: Int): DataFrame = {
    val anchors = g.verticesOfType(anchorType)
    GraphOps.reachablePairs(g.edges, anchors.select(col("id")), maxHops)
      .join(anchors.select(col("id").as("v"), col("cpu")), Seq("v"))
      .groupBy(col("root")).agg(sum(col("cpu")).as("t_cpu"))
      .join(anchors.select(col("id").as("root"), col("grp")), Seq("root"))
      .groupBy(col("grp")).agg(avg(col("t_cpu")).as("avg_cpu"))
  }

  /** Q2 — Ancestors: distinct `(root, v)` with v an `anchorType` vertex
    * reachable *backwards* within `maxHops` hops from each anchor.
    */
  def q2Ancestors(g: PropertyGraph, anchorType: String, maxHops: Int): DataFrame =
    sameTypeReach(g, anchorType, maxHops, reversed = true)

  /** Q3 — Descendants: forward counterpart of Q2. */
  def q3Descendants(g: PropertyGraph, anchorType: String, maxHops: Int): DataFrame =
    sameTypeReach(g, anchorType, maxHops, reversed = false)

  private def sameTypeReach(g: PropertyGraph, anchorType: String, maxHops: Int, reversed: Boolean): DataFrame = {
    val anchors = g.verticesOfType(anchorType).select(col("id"))
    GraphOps.reachablePairs(g.edges, anchors, maxHops, reversed)
      .join(anchors.withColumnRenamed("id", "v"), Seq("v"), "left_semi")
  }

  /** Q4 — Path lengths: from `sourceId`, for every vertex within `maxHops`
    * forward hops, the max over paths of the max edge `ts` along the path.
    * Returns `(v, dist)`; the source itself is excluded.
    */
  def q4PathLengths(g: PropertyGraph, sourceId: Long, maxHops: Int): DataFrame = {
    val seed = g.vertices.filter(col("id") === sourceId)
      .select(col("id").as("cur"), lit(Long.MinValue).as("ts"))
    GraphOps.frontiers(seed, g.edges, maxHops)((moved, _) => moved.groupBy("cur").agg(max("ts").as("ts")))
      .reduce(_ union _)
      .filter(col("cur") =!= sourceId)
      .groupBy(col("cur").as("v")).agg(max(col("ts")).as("dist"))
  }

  /** Q5 — Edge count. */
  def q5EdgeCount(g: PropertyGraph): Long = g.edgeCount

  /** Q6 — Vertex count. */
  def q6VertexCount(g: PropertyGraph): Long = g.vertexCount

  /** Q7 — Community detection via label propagation (`iters` passes).
    * Returns `(id, label)`.
    */
  def q7CommunityDetection(g: PropertyGraph, iters: Int): DataFrame =
    LabelPropagation.run(g.vertices, g.edges, iters)

  /** Q8 — Largest community: given Q7's labels, the community with the most
    * `anchorType` vertices; returns its `(label, members, edges)` sizes.
    */
  def q8LargestCommunity(g: PropertyGraph, labels: DataFrame, anchorType: String): (Long, Long, Long) = {
    val typed = g.verticesOfType(anchorType).select(col("id"))
    val byCommunity = labels
      .join(typed, Seq("id"), "left_semi")
      .groupBy(col("label")).agg(count(lit(1)).as("members"))
      .orderBy(col("members").desc, col("label").asc)
    val top = byCommunity.limit(1).collect()
    if (top.isEmpty) (-1L, 0L, 0L)
    else {
      val community = top(0).getLong(0)
      val memberCount = top(0).getLong(1)
      val memberIds = labels.filter(col("label") === community).select(col("id"))
      val inducedEdges = g.edges
        .join(memberIds.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
        .join(memberIds.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
        .count()
      (community, memberCount, inducedEdges)
    }
  }
}
