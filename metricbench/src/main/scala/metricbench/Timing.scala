package metricbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo

/** Clocks and JVM counters shared by the workloads. */
object Timing {

  /** Runs `body` and returns its result with the elapsed wall milliseconds. */
  def timedMs[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Closed loop, one client: calls `op(i)` for i = 0, 1, … until `seconds`
    * have passed and at least `minOps` operations have run. An operation that
    * starts before the deadline runs to its end, so every measured operation
    * is complete. Returns the results.
    */
  def closedLoop[T](seconds: Double, minOps: Int = 1)(op: Int => T): IndexedSeq[T] = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val out = IndexedSeq.newBuilder[T]
    var i = 0
    while (System.nanoTime() < deadline || i < minOps) { out += op(i); i += 1 }
    out.result()
  }

  /** Runs `body` and returns its result with `jvm.gc_ms_per_op` and
    * `jvm.alloc_mb_per_op` over the `ops(result)` operations it ran.
    */
  def jvmPerOp[T](body: => T)(ops: T => Int): (T, Map[String, Double]) = {
    val gc0 = gcMs
    val alloc = new AllocMeter
    try {
      val r = body
      val n = ops(r).toDouble
      (r, Map("jvm.gc_ms_per_op" -> (gcMs - gc0) / n, "jvm.alloc_mb_per_op" -> alloc.allocatedBytes / 1048576.0 / n))
    } finally alloc.close()
  }

  /** Quantile by the nearest-rank rule over an unsorted sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The percentile the sample supports: `q` only when at least ten samples
    * lie beyond it.
    */
  def tailOrNone(xs: Seq[Double], q: Double): Option[Double] =
    if (xs.size * (1 - q) >= 10) Some(quantile(xs, q)) else None

  /** Heap in use after a full collection, in MB. */
  def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Total collection time of all collectors, in ms. */
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** CPU time of the whole process, in ns. */
  def processCpuNs: Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Bytes allocated on the heap by all threads, including threads that have
    * ended: heap growth plus everything the collectors freed since `start`.
    */
  final class AllocMeter extends NotificationListener with AutoCloseable {
    private val freed = new java.util.concurrent.atomic.AtomicLong(0L)
    private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
      case e: NotificationEmitter => e
    }
    beans.foreach(_.addNotificationListener(this, null, null))
    private val startUsed = used

    private def used: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

    override def handleNotification(n: Notification, hb: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val gc = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        val before = gc.getMemoryUsageBeforeGc.asScala.values.map(_.getUsed).sum
        val after  = gc.getMemoryUsageAfterGc.asScala.values.map(_.getUsed).sum
        freed.addAndGet(math.max(0L, before - after))
      }

    def allocatedBytes: Long = math.max(0L, used - startUsed + freed.get())

    override def close(): Unit = beans.foreach(_.removeNotificationListener(this))
  }
}
