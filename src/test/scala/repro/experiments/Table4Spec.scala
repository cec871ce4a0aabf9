package repro.experiments

import repro.SparkSpec
import repro.experiments.Fig7.DatasetSpec
import repro.graph.GraphGen

/** Table IV's harness end to end, on a small provenance graph at small hop
  * and LPA bounds.
  */
class Table4Spec extends SparkSpec {

  test("Table IV reads each query's base and view cardinalities from Fig. 7's run") {
    val spec = DatasetSpec("prov", GraphGen.provSummarized(spark, nJobs = 16), "Job",
      q1Hops = 4, q234Hops = 2, lpaIters = 2)
    val rows = Fig7.runDataset(spec)
    // The view plans of Q1-Q3 are equivalent rewritings of the base plans.
    for (r <- rows.take(3)) assert(r.baseRows == r.viewRows, r.query.name)
    // Q4 over the base graph also reaches files; over the view, only jobs.
    val q4 = rows(3)
    assert(q4.query.name.startsWith("Q4") && q4.viewRows >= 1 && q4.viewRows <= q4.baseRows)
    // Operations and result kinds match the paper's table row for row.
    assert(rows.map(r => (r.query.name, r.query.operation, r.query.result)) == Seq(
      ("Q1: Job Blast Radius", "Retrieval", "Subgraph"),
      ("Q2: Ancestors", "Retrieval", "Set of vertices"),
      ("Q3: Descendants", "Retrieval", "Set of vertices"),
      ("Q4: Path lengths", "Retrieval", "Bag of scalars"),
      ("Q5: Edge Count", "Retrieval", "Single scalar"),
      ("Q6: Vertex Count", "Retrieval", "Single scalar"),
      ("Q7: Community Detection", "Update", "N/A"),
      ("Q8: Largest Community", "Retrieval", "Subgraph")))
  }
}
