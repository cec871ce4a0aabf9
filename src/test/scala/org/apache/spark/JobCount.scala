package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskStart}

/** Counts the Spark jobs a block submits, those still running when it
  * returns, and the tasks each of its stages runs. It waits for the listener bus before and after the block, so the
  * counts hold exactly that block's work; the wait is `private[spark]`, hence
  * this package.
  */
object JobCount {

  /** A block's Spark work: its jobs, those of them that had not ended when
    * it returned, and the tasks run per stage id. A job posts its end before
    * its caller resumes, so a job that ended inside the block is not counted
    * as running.
    */
  final case class Work(jobs: Int, running: Int, stageTasks: Map[Int, Int]) {
    def tasks: Int = stageTasks.values.sum
    def maxStageTasks: Int = stageTasks.values.maxOption.getOrElse(0)
  }

  def of[A](sc: SparkContext)(body: => A): (A, Work) = {
    val jobs, ended = new AtomicInteger
    val stageTasks = mutable.Map.empty[Int, Int].withDefaultValue(0)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.incrementAndGet()
      override def onTaskStart(e: SparkListenerTaskStart): Unit = stageTasks.synchronized {
        stageTasks(e.stageId) += 1
      }
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty()
      (result, Work(jobs.get, jobs.get - ended.get, stageTasks.synchronized(stageTasks.toMap)))
    } finally sc.removeSparkListener(listener)
  }
}
