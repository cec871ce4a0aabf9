package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{CostModel, Kaskade}
import repro.engine.Queries
import repro.experiments._
import repro.graph.{GraphGen, GraphSchema, GraphStats}

/** The entry point for the paper's evaluation artifacts, one per run:
  *
  * {{{
  *   Reproduce <catalog|table3|table4|fig5|fig6|fig7|demo> [n]
  * }}}
  *
  * `n` is the number of provenance jobs for `table3` (default 256), `table4`
  * (128) and `demo` (512), and the number of timed runs per query for `fig7`
  * (1); the other artifacts take none. `catalog` runs no Spark.
  */
object Reproduce {

  val artifacts: Seq[String] = Seq("catalog", "table3", "table4", "fig5", "fig6", "fig7", "demo")

  def main(args: Array[String]): Unit = args match {
    case Array(artifact) => run(artifact, None)
    case Array(artifact, n) => run(artifact, Some(n.toLong))
    case _ => throw new IllegalArgumentException(s"usage: Reproduce <${artifacts.mkString("|")}> [n]")
  }

  /** Print one artifact's tables. */
  def run(artifact: String, n: Option[Long]): Unit = artifact match {
    case "catalog" =>
      println("== Tables I & II: view types produced by the enumerator ==")
      println(ViewCatalog.format(ViewCatalog.run()))
      println()
      println("== § IV-B: kHopConnector instantiations for the blast-radius query ==")
      ViewCatalog.instantiations().foreach(println)
    case "table3" => withSpark("kaskade-table3") { spark =>
      println("== Table III: networks used for evaluation (scaled reproduction) ==")
      println(Table3.format(Table3.run(spark, n.getOrElse(256L))))
    }
    case "table4" => withSpark("kaskade-table4") { spark =>
      println("== Table IV: query workload (executed over prov, base vs view plan) ==")
      println(Table4.format(Table4.run(spark, n.getOrElse(128L))))
    }
    case "fig5" => withSpark("kaskade-fig5") { spark =>
      println("== Fig. 5: estimated vs actual 2-hop connector sizes ==")
      println(Fig5.format(Fig5.run(spark)))
    }
    case "fig6" => withSpark("kaskade-fig6") { spark =>
      println("== Fig. 6: effective graph size after summarizer and connector views ==")
      println(Fig6.format(Fig6.run(spark)))
    }
    case "fig7" => withSpark("kaskade-fig7") { spark =>
      println("== Fig. 7: query runtimes over base graph vs 2-hop connector view ==")
      println(Fig7.format(Fig7.run(spark, n.fold(1)(_.toInt))))
    }
    case "demo" => withSpark("kaskade-demo")(demo(_, n.getOrElse(512L)))
    case other =>
      throw new IllegalArgumentException(
        s"unknown artifact '$other'; known: ${artifacts.mkString(", ")}")
  }

  private def withSpark(app: String)(body: SparkSession => Unit): Unit = {
    val spark = ExperimentUtil.session(app)
    try body(spark) finally spark.stop()
  }

  /** End-to-end demo of the Fig. 2 pipeline: profile the graph, enumerate and
    * select views under a budget, materialize the selected views, let Kaskade
    * rewrite the blast-radius query over them, and execute both plans.
    */
  private def demo(spark: SparkSession, nJobs: Long): Unit = {
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
  }
}
