package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.experiments.Fig7.DatasetSpec
import repro.graph.GraphGen

/** Reproduction of Table IV: the query workload. Each of Fig. 7's queries is
  * shown with its operation and result kind, as the paper's table does, next
  * to the row counts its raw plan and its 2-hop-connector plan return in
  * Fig. 7's run over the provenance graph.
  */
object Table4 {

  /** Fig. 7's run over `nJobs` jobs of the summarized provenance graph, at
    * Fig. 7's hop bounds and 6 LPA passes (3 over the view).
    */
  def run(spark: SparkSession, nJobs: Long = 128): Seq[Fig7.Row] =
    Fig7.runDataset(DatasetSpec("prov", GraphGen.provSummarized(spark, nJobs), "Job", lpaIters = 6))

  def format(rows: Seq[Fig7.Row]): String = {
    import ExperimentUtil._
    table(
      Seq("Query", "Operation", "Result", "base plan card.", "view plan card."),
      rows.map(r => Seq(r.query.name, r.query.operation, r.query.result,
        r.baseRows.toString, r.viewRows.toString)))
  }
}
