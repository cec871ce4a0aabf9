package repro.jobs

import repro.core.{CostModel, Kaskade}
import repro.engine.Queries
import repro.experiments.{ExperimentUtil, ViewCatalog}
import repro.graph.{GraphGen, GraphSchema, GraphStats}

/** End-to-end demo of the Fig. 2 pipeline: profile the graph, enumerate and
  * select views under a budget, materialize the selected views, let Kaskade
  * rewrite the blast-radius query over them, and execute both plans.
  */
object ViewSelectionDemo {
  def main(args: Array[String]): Unit = {
    val spark = ExperimentUtil.session("kaskade-demo")
    try {
      val nJobs = args.headOption.map(_.toLong).getOrElse(512L)
      // The base shares the views' layout, one partition per core.
      val g = GraphGen.provSummarized(spark, nJobs).compact.cache()
      val kas = new Kaskade(GraphSchema.provSummarized, GraphStats.compute(g))
      val q = kas.parse(ViewCatalog.blastRadiusCypher)
      val rawHops = CostModel.hopBudget(q)

      println("== candidate views ==")
      kas.enumerate(q).foreach(v => println(s"  ${v.key}"))

      println(s"== selected under budget, materialized (graph has ${g.edgeCount} edges) ==")
      kas.selectViews(Seq(q), budgetEdges = 10 * g.edgeCount).foreach { s =>
        kas.materialize(s.view, g)
        println(f"  ${s.view.key}  size=${s.size}%.0f  improvement=${s.improvement}%.3g  " +
          s"edges=${kas.viewSizes(s.view.key)}")
      }

      val (plan, hops) = kas.rewrite(q) match {
        case Some(rw) =>
          println(s"== rewriting (paper Lst. 4) ==\n  ${rw.toCypher("q_j1", "q_j2")}")
          require(rw.hopsLo == 1, s"Q1 starts at hop 1, the rewriting needs ${rw.hopsLo}")
          (kas.viewGraph(rw.view).get, rw.hopsHi)
        case None =>
          println("== no selected view answers the query: the raw plan runs ==")
          (g, rawHops)
      }

      val (baseN, tBase) = ExperimentUtil.timeMs()(Queries.q1BlastRadius(g, "Job", rawHops).count())
      val (viewN, tView) = ExperimentUtil.timeMs()(Queries.q1BlastRadius(plan, "Job", hops).count())
      println(f"== Q1 runtime: base $tBase%.0f ms ($baseN rows) vs chosen plan $tView%.0f ms " +
        f"($viewN rows), speedup ${tBase / tView}%.1fx ==")
    } finally spark.stop()
  }
}
