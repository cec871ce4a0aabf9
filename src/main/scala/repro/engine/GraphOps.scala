package repro.engine

import org.apache.spark.sql.{DataFrame, Observation}
import org.apache.spark.sql.functions._
import scala.annotation.tailrec
import repro.graph.PropertyGraph

/** The traversal primitives on DataFrames: the semi-naive frontier step,
  * bounded reachability, k-hop walks, path contraction and path counting.
  * Queries run on them, and each view type's build in `repro.core.CandidateView`
  * (the paper's § III-C / § VI view classes) composes them.
  *
  * Connector edges carry `ts` = max timestamp along the contracted path and
  * `paths` = path multiplicity; `ts` composes under further traversal, which
  * is what makes Q4's rewriting over the view exact.
  */
object GraphOps {

  /** The endpoints of the walks of k edges, self-loops excluded: rows
    * `(src, cur, ts, paths)`, where `paths` counts the walks a row stands
    * for and `ts` is the max timestamp along them. Rows are summed per
    * (src, cur) before every join after the first, so the work grows with
    * vertex pairs, not with walks; the caller sums the last join's rows.
    */
  private[repro] def kHopPaths(edges: DataFrame, k: Int): DataFrame = {
    require(k >= 1, "k must be positive")
    val e = edges.filter(col("src") =!= col("dst"))
    val walks = e.select(col("src"), col("dst").as("cur"), col("ts"), lit(1L).as("paths"))
    if (k == 1) walks
    else advance(frontiers(walks, e, k - 2)((moved, _) => perPair(moved)).last, e)
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
    } else kHopPaths(g.edges, k).filter(col("src") =!= col("cur"))
      .agg(coalesce(sum(col("paths")), lit(0L))).collect()(0).getLong(0)

  /** Bounded path contraction, the connector of Table I rows 1, 3 and 4: one
    * `label` edge per (source, sink) pair of distinct vertices joined by a
    * walk of 1..`maxHops` `edges`, with `ts` = max timestamp over the walks
    * and `paths` = their number. `sources` and `sinks` are `id` columns; the
    * view's vertices are theirs. `maxHops` ends the walk on cyclic inputs.
    * Both id sets are semi-joined through a broadcast, duplicates and all
    * (DESIGN.md § 1, set-up join rule).
    */
  def pathContraction(g: PropertyGraph, sources: DataFrame, sinks: DataFrame, edges: DataFrame,
      maxHops: Int, label: String): PropertyGraph = {
    val seed = sources.select(
      col("id").as("src"), col("id").as("cur"), lit(0L).as("ts"), lit(1L).as("paths"))
    val walks = frontiers(seed, edges, maxHops)((moved, _) => perPair(moved)).reduce(_ union _)
    PropertyGraph(g.vertices.join(broadcast(sources.union(sinks)), Seq("id"), "left_semi"),
      contract(walks, sinks, label))
  }

  /** One `label` edge per pair of distinct vertices that `walks` rows join,
    * ending at a `sinks` id: max `ts`, summed `paths`. The sink ids are
    * broadcast, so `walks` is not shuffled for the semi-join.
    */
  private[repro] def contract(walks: DataFrame, sinks: DataFrame, label: String): DataFrame =
    walks
      .join(broadcast(sinks.withColumnRenamed("id", "cur")), Seq("cur"), "left_semi")
      .filter(col("src") =!= col("cur"))
      .groupBy(col("src"), col("cur").as("dst"))
      .agg(max("ts").as("ts"), sum("paths").as("paths"))
      .select(col("src"), col("dst"), lit(label).as("etype"), col("ts"), col("paths"))

  /** Multi-source bounded reachability: all distinct `(root, v)` pairs with a
    * directed path of 1..maxHops `edges` (`src`, `dst`, `ts`) from root to v.
    * Backbone of Q1–Q3.
    *
    * @param reversed follow edges backwards (ancestors, Q2).
    */
  def reachablePairs(
      edges: DataFrame,
      roots: DataFrame,
      maxHops: Int,
      reversed: Boolean = false,
  ): DataFrame = {
    val e = if (reversed) edges.select(col("dst").as("src"), col("src").as("dst"), col("ts")) else edges
    val seed = roots.select(col("id").as("root"), col("id").as("cur"))
    frontiers(seed, e, maxHops)((moved, visited) =>
      moved.distinct().join(visited, Seq("root", "cur"), "left_anti"))
      .reduce(_ union _)
      .filter(col("root") =!= col("cur"))
      .select(col("root"), col("cur").as("v"))
  }

  /** Walk rows summed per (src, cur): max `ts`, total `paths`. */
  private def perPair(walks: DataFrame): DataFrame =
    walks.groupBy("src", "cur").agg(max("ts").as("ts"), sum("paths").as("paths"))

  /** Moves every frontier row along each `edges` edge out of its `cur`
    * vertex. A `ts` column becomes the max edge timestamp along the walk.
    */
  private def advance(frontier: DataFrame, edges: DataFrame): DataFrame = {
    val e = edges.select(col("src").as("_s"), col("dst").as("_d"), col("ts").as("_t"))
    frontier.join(e, col("cur") === col("_s")).select(frontier.columns.toSeq.map {
      case "cur" => col("_d").as("cur")
      case "ts"  => greatest(col("ts"), col("_t")).as("ts")
      case c     => col(c)
    }: _*)
  }

  /** The semi-naive frontier step of every traversal (Bancilhon &
    * Ramakrishnan, SIGMOD 1986): each hop [[advance]]s the last frontier and
    * `merge(moved, visited)` reduces it to the next one, `visited` being the
    * union of the frontiers so far. A hop is materialized once, by
    * `localCheckpoint`, whose `Observation` row count ends the traversal at
    * an empty hop; the last hop stays lazy for the caller's job. Returns the
    * frontiers, `seed` (which has a `cur` column) first.
    */
  private[engine] def frontiers(seed: DataFrame, edges: DataFrame, maxHops: Int)(
      merge: (DataFrame, DataFrame) => DataFrame): Seq[DataFrame] = {
    @tailrec def loop(hops: Vector[DataFrame], visited: DataFrame): Vector[DataFrame] =
      if (hops.size > maxHops) hops
      else {
        val next = merge(advance(hops.last, edges), visited)
        if (hops.size == maxHops) hops :+ next
        else {
          val rows = Observation()
          val hop = next.observe(rows, count(lit(1)).as("rows")).localCheckpoint()
          if (rows.get("rows") == 0L) hops :+ hop else loop(hops :+ hop, visited.union(hop))
        }
      }
    loop(Vector(seed), seed)
  }
}
