package repro.experiments

import repro.core._
import repro.cypher.CypherParser
import repro.graph.GraphSchema

/** Reproduction of Table I (connector types), Table II (summarizer types)
  * and the § IV-B instantiation listing: drives the enumerator over queries
  * that exercise each view template and reports what it produced.
  */
object ViewCatalog {

  val blastRadiusCypher: String =
    """MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File),
      |      (q_f1:File) -[r*0..8]-> (q_f2:File),
      |      (q_f2:File) -[:IS_READ_BY]-> (q_j2:Job)
      |RETURN q_j1 as A, q_j2 as B""".stripMargin

  final case class CatalogRow(table: String, viewType: String, instance: String, cypher: String)

  /** Enumerate candidate views for the blast-radius query over both prov
    * schemas and classify them against Tables I and II.
    */
  def run(): Seq[CatalogRow] = {
    val q = CypherParser.parse(blastRadiusCypher)
    val views =
      ViewEnumerator.enumerate(q, GraphSchema.provSummarized) ++
        ViewEnumerator.enumerate(q, GraphSchema.provRaw)

    views.distinct.map { v =>
      val (table, viewType) = v.tableRow
      CatalogRow(table, viewType, v.key, v.toCypher)
    }.sortBy(r => (r.table, r.viewType, r.instance))
  }

  /** The § IV-B kHopConnector instantiation list for the blast-radius query. */
  def instantiations(): Seq[String] = {
    ViewEnumerator.kHopInstantiations(
      CypherParser.parse(blastRadiusCypher), GraphSchema.provSummarized)
      .map { case (x, y, xt, yt, k) =>
        s"(X='$x', Y='$y', XTYPE='$xt', YTYPE='$yt', K=$k)"
      }
  }

  def format(rows: Seq[CatalogRow]): String = {
    import ExperimentUtil._
    table(
      Seq("paper table", "view type", "instantiation"),
      rows.map(r => Seq(r.table, r.viewType, r.instance)))
  }
}
