package repro

import org.apache.spark.sql.DataFrame
import repro.graph.PropertyGraph

/** DuckDB references for the engine's traversals, as recursive CTEs. */
object TraversalOracle {

  /** `GraphOps.reachablePairs` over tables `e(src, dst)` and `roots(id)`:
    * distinct (root, v), v ≠ root, joined by 1..`maxHops` edges, followed
    * backwards when `reversed`.
    */
  def reachablePairs(maxHops: Int, reversed: Boolean = false): String = {
    val (from, to) = if (reversed) ("dst", "src") else ("src", "dst")
    s"""WITH RECURSIVE reach(root, v, d) AS (
       |  SELECT id, id, 0 FROM roots
       |  UNION
       |  SELECT r.root, e.$to, r.d + 1 FROM reach r JOIN e ON r.v = e.$from WHERE r.d < $maxHops
       |)
       |SELECT DISTINCT root AS root, v AS v FROM reach WHERE root <> v""".stripMargin
  }

  /** Checks a bounded path contraction: per pair of distinct `srcType` and
    * `dstType` vertices, the number of walks of 1..`maxHops` `edges`
    * between them and the max edge ts along those walks.
    */
  def assertContraction(
      view: PropertyGraph, g: PropertyGraph, edges: DataFrame, srcType: String, dstType: String, maxHops: Int,
  ): Unit =
    Oracle.assertEquivalent(
      view.edges.select("src", "dst", "ts", "paths"),
      s"""WITH RECURSIVE w(src, cur, ts, d) AS (
         |  SELECT id, id, CAST(0 AS BIGINT), 0 FROM srcs
         |  UNION ALL
         |  SELECT w.src, e.dst, greatest(w.ts, CAST(e.ts AS BIGINT)), w.d + 1
         |  FROM w JOIN e ON w.cur = e.src WHERE w.d < $maxHops
         |)
         |SELECT w.src AS src, w.cur AS dst, max(w.ts) AS ts, count(*) AS paths
         |FROM w JOIN dsts ON w.cur = dsts.id WHERE w.src <> w.cur
         |GROUP BY w.src, w.cur""".stripMargin,
      "e" -> edges.select("src", "dst", "ts"),
      "srcs" -> g.verticesOfType(srcType).select("id"),
      "dsts" -> g.verticesOfType(dstType).select("id"))
}
