package repro.cypher

/** AST for the Cypher `MATCH ... RETURN` subset that Kaskade queries use
  * (paper § III-B, Lst. 1): typed node patterns, typed directed edges, and
  * variable-length paths `-[r*lo..hi]->`.
  */

/** A node pattern `(name:Label)`; the label is optional. */
final case class NodePat(name: String, label: Option[String])

/** A fixed single-hop edge pattern `(src)-[:ETYPE]->(dst)`. */
final case class EdgePat(src: String, dst: String, etype: Option[String])

/** A variable-length path `(src)-[r*lo..hi]->(dst)` (ETYPE optional). */
final case class VarLengthPat(src: String, dst: String, etype: Option[String], lo: Int, hi: Int) {
  require(lo >= 0 && hi >= lo, s"invalid hop bounds [$lo..$hi]")
}

/** A `RETURN v AS alias` item. */
final case class ReturnItem(variable: String, alias: Option[String])

/** The graph-pattern portion of a query: what the constraint miner consumes.
  *
  * @param vertexLabels pattern-variable name -> optional vertex label
  * @param edges        fixed-length edge patterns
  * @param varPaths     variable-length path patterns
  * @param returns      projected pattern variables
  */
final case class QueryGraph(
    vertexLabels: Map[String, Option[String]],
    edges: Seq[EdgePat],
    varPaths: Seq[VarLengthPat],
    returns: Seq[ReturnItem],
) {
  def vertexNames: Seq[String] = vertexLabels.keys.toSeq.sorted

  /** Names of vertices projected in the RETURN clause (paper § IV-B restricts
    * connector endpoints to these).
    */
  def projected: Seq[String] = returns.map(_.variable)

  /** In-degree of a pattern vertex counting both edge kinds. */
  def inDegree(v: String): Int =
    edges.count(_.dst == v) + varPaths.count(_.dst == v)

  /** Out-degree of a pattern vertex counting both edge kinds. */
  def outDegree(v: String): Int =
    edges.count(_.src == v) + varPaths.count(_.src == v)

  /** The same pattern with every variable `v` renamed to `f(v)`; return
    * aliases are kept.
    */
  def renamed(f: String => String): QueryGraph = QueryGraph(
    vertexLabels.map { case (v, l) => f(v) -> l },
    edges.map(e => e.copy(src = f(e.src), dst = f(e.dst))),
    varPaths.map(p => p.copy(src = f(p.src), dst = f(p.dst))),
    returns.map(r => r.copy(variable = f(r.variable))))
}
