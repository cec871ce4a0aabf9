package org.apache.spark

/** Lets the benchmark wait until every Spark event posted so far has reached
  * its listeners, so counter snapshots taken at a layer boundary include the
  * jobs that layer ran. The wait is `private[spark]`, hence this package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
