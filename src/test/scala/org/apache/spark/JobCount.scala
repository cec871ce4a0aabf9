package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block submits. It waits for the listener bus
  * before and after the block, so the count holds exactly that block's jobs;
  * the wait is `private[spark]`, hence this package.
  */
object JobCount {
  def of[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty()
      (result, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
