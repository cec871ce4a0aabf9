package org.apache.spark

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.util.QueryExecutionListener

/** The physical operators of every query that a block runs, one list per
  * query, adaptive stages included; a cached relation is read as a scan, so
  * the plan that built it is not listed. Like [[JobCount]], it waits for the
  * `private[spark]` listener bus before and after the block.
  */
object ExecutedPlans extends AdaptiveSparkPlanHelper {

  def of[A](spark: SparkSession)(body: => A): (A, Seq[Seq[String]]) = {
    val plans = mutable.ArrayBuffer.empty[SparkPlan]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.synchronized(plans += qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    val bus = spark.sparkContext.listenerBus
    bus.waitUntilEmpty()
    spark.listenerManager.register(listener)
    try {
      val result = body
      bus.waitUntilEmpty()
      (result, plans.synchronized(plans.toSeq).map(collect(_) { case op => op.nodeName }))
    } finally spark.listenerManager.unregister(listener)
  }
}
