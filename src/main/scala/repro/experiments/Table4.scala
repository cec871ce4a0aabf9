package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.experiments.Fig7.DatasetSpec
import repro.graph.GraphGen

/** Reproduction of Table IV: the query workload. Each query is classified by
  * operation and result kind, as the paper's table does, next to the row
  * counts its raw plan and its 2-hop-connector plan return in Fig. 7's run
  * over the provenance graph.
  */
object Table4 {

  final case class Row(
      query: String,
      operation: String,
      result: String,
      baseCardinality: Long,
      viewCardinality: Long,
  )

  /** Each query's name, operation and result kind, in Fig. 7's query order. */
  private val catalog = Seq(
    ("Q1: Job Blast Radius", "Retrieval", "Subgraph"),
    ("Q2: Ancestors", "Retrieval", "Set of vertices"),
    ("Q3: Descendants", "Retrieval", "Set of vertices"),
    ("Q4: Path lengths", "Retrieval", "Bag of scalars"),
    ("Q5: Edge Count", "Retrieval", "Single scalar"),
    ("Q6: Vertex Count", "Retrieval", "Single scalar"),
    ("Q7: Community Detection", "Update", "N/A"),
    ("Q8: Largest Community", "Retrieval", "Subgraph"),
  )

  /** The table over `nJobs` jobs of the summarized provenance graph, at
    * Fig. 7's hop bounds and 6 LPA passes (3 over the view).
    */
  def run(spark: SparkSession, nJobs: Long = 128): Seq[Row] =
    run(DatasetSpec("prov", GraphGen.provSummarized(spark, nJobs), "Job", lpaIters = 6))

  /** The table over a provenance dataset: Fig. 7's run of `spec`, one row
    * per query.
    */
  def run(spec: DatasetSpec): Seq[Row] =
    catalog.zip(Fig7.runDataset(spec)).map { case ((query, operation, result), r) =>
      Row(query, operation, result, r.baseRows, r.viewRows)
    }

  def format(rows: Seq[Row]): String = {
    import ExperimentUtil._
    table(
      Seq("Query", "Operation", "Result", "base plan card.", "view plan card."),
      rows.map(r => Seq(r.query, r.operation, r.result,
        r.baseCardinality.toString, r.viewCardinality.toString)))
  }
}
