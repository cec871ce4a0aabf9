package kbench

import java.lang.management.ManagementFactory
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Spark work counters fed by a listener: jobs, stages, tasks and shuffle
  * bytes written. Read them only through [[snapshot]], which first drains
  * the asynchronous listener bus.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  @volatile private var jobs, stages, tasks, shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    Option(e.taskMetrics).foreach(m => shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
  }

  def snapshot(): Map[String, Double] = {
    ListenerBusAccess.drain(sc)
    Map("spark_jobs" -> jobs.toDouble, "stages" -> stages.toDouble, "tasks" -> tasks.toDouble,
      "shuffle_mb" -> shuffleBytes / 1e6)
  }
}

/** One timed call into a layer. `counts` holds the Spark work done inside it
  * plus any counts the caller attaches (candidates, rows, hops, ...).
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
    counts: Map[String, Double]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. When disabled, [[span]] only runs its body, so
  * the untraced run pays nothing. Spans go to disk once, in [[write]].
  * [[ownNanos]] is the time spent recording, counter drains included: the
  * tracing overhead, measured where it is paid.
  */
final class Tracer(enabled: Boolean, counters: Option[SparkCounters]) {
  private val recorded = ArrayBuffer.empty[Span]
  private var stack = List(-1)
  private var nextId = 0
  var ownNanos = 0L

  def span[A](name: String)(body: => A): A = spanWith(name, (_: A) => Map.empty[String, Double])(body)

  /** A span that also records counts computed from the body's result. */
  def spanWith[A](name: String, extra: A => Map[String, Double])(body: => A): A =
    if (!enabled) body
    else {
      val s0 = System.nanoTime()
      val id = nextId
      nextId += 1
      val before = counters.map(_.snapshot()).getOrElse(Map.empty)
      val parent = stack.head
      stack = id :: stack
      val t0 = System.nanoTime()
      val result = try body finally stack = stack.tail
      val t1 = System.nanoTime()
      val after = counters.map(_.snapshot()).getOrElse(Map.empty)
      val delta = after.map { case (k, v) => k -> (v - before.getOrElse(k, 0.0)) }
      recorded += Span(id, parent, name, t0, t1, delta ++ extra(result))
      ownNanos += (t0 - s0) + (System.nanoTime() - t1)
      result
    }

  def spans: Seq[Span] = recorded.toSeq

  def named(name: String): Seq[Span] = spans.filter(_.name == name)

  /** Spans as JSON lines: name, start, end (ns, monotonic), parent, counts. */
  def write(path: java.nio.file.Path): Unit = {
    val lines = spans.sortBy(_.startNs).map { s =>
      val counts = s.counts.toSeq.sortBy(_._1).map { case (k, v) => s""""$k":${Json.num(v)}""" }
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},""" +
        s""""end_ns":${s.endNs},"counts":{${counts.mkString(",")}}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** JVM-wide garbage-collection time and peak heap, read from the JMX beans. */
object JvmStats {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  def heapPeakMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / 1e6
}

/** Where a timed interval went: wall time, this thread's CPU, the process's
  * CPU, JVM GC time and the host's steal time (all vCPUs, from /proc/stat).
  */
final case class Usage(wall: Double, threadCpu: Double, processCpu: Double, gc: Double, steal: Double) {
  def -(o: Usage): Usage = Usage(wall - o.wall, threadCpu - o.threadCpu, processCpu - o.processCpu, gc - o.gc, steal - o.steal)
  override def toString: String = f"wall=$wall%.3f thread=$threadCpu%.3f proc=$processCpu%.3f gc=$gc%.3f steal=$steal%.3f"
}

object Usage {
  private val threads = ManagementFactory.getThreadMXBean
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  private def steal: Double =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().next().split("\\s+")(8).toDouble / 100 finally src.close()
    } catch { case _: Exception => 0.0 }

  def now(): Usage = Usage(System.nanoTime() / 1e9, threads.getCurrentThreadCpuTime / 1e9,
    os.getProcessCpuTime / 1e9, JvmStats.gcSeconds, steal)
}
