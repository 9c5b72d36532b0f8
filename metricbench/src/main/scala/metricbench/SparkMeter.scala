package metricbench

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.executor.TaskMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark CPU, task and stage accounting, keyed by job group.
  *
  * Each measured action runs under a job group of its own. Spark posts a
  * job's end event before the action returns, and the listener bus delivers
  * events in the order they were posted. So after the action the meter runs a
  * one-task barrier job in another group and blocks until that job's end
  * event arrives: by then every event of the measured jobs has been counted.
  * No sleep and no quiet period is involved.
  *
  * With tracing on, jobs, stages and tasks also become spans: a job under the
  * span that was open when the action started, a stage under its job, a task
  * under its stage.
  */
final class SparkMeter(spark: SparkSession, trace: Trace) extends SparkListener {
  import SparkMeter._

  private val sc = spark.sparkContext
  // Spark reports epoch milliseconds; spans use System.nanoTime.
  private val epochMinusNanoNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private def toNano(epochMs: Long): Long = epochMs * 1000000L - epochMinusNanoNs

  private val totals      = new ConcurrentHashMap[String, Totals]()
  private val groupParent = new ConcurrentHashMap[String, java.lang.Long]()
  private val jobGroup    = new ConcurrentHashMap[Int, String]()
  private val stageGroup  = new ConcurrentHashMap[Int, String]()
  private val jobSpan     = new ConcurrentHashMap[Int, (Long, Long, Long)]() // (span id, parent, start ms)
  private val stageSpan   = new ConcurrentHashMap[Int, (Long, Long)]() // (span id, job span id)
  private val barriers    = new ConcurrentHashMap[String, CountDownLatch]()
  private val seq         = new AtomicLong(0L)

  sc.addSparkListener(this)

  /** Runs `body` under a fresh job group named after `phase`; returns its
    * result and the totals over every task its jobs ran.
    */
  def measure[T](phase: String)(body: => T): (T, Totals) = {
    val group = s"$phase#${seq.incrementAndGet()}"
    totals.put(group, new Totals)
    groupParent.put(group, trace.currentId)
    sc.setJobGroup(group, phase, interruptOnCancel = false)
    val r = try body finally sc.clearJobGroup()
    barrier()
    groupParent.remove(group)
    (r, totals.remove(group))
  }

  private def barrier(): Unit = {
    val group = s"$BarrierPrefix${seq.incrementAndGet()}"
    val latch = new CountDownLatch(1)
    barriers.put(group, latch)
    sc.setJobGroup(group, "listener barrier", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    try {
      if (!latch.await(120, TimeUnit.SECONDS))
        throw new IllegalStateException("the listener bus did not deliver the barrier job's end event")
    } finally barriers.remove(group)
  }

  def close(): Unit = sc.removeSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (group != null && totals.containsKey(group)) {
      jobGroup.put(e.jobId, group)
      e.stageIds.foreach(s => stageGroup.putIfAbsent(s, group))
      if (trace.enabled) {
        val id = trace.newId()
        jobSpan.put(e.jobId, (id, groupParent.getOrDefault(group, 0L), e.time))
        e.stageIds.foreach(s => stageSpan.putIfAbsent(s, (trace.newId(), id)))
      }
    } else if (group != null && barriers.containsKey(group)) jobGroup.put(e.jobId, group)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val group = jobGroup.remove(e.jobId)
    if (group == null) return
    val latch = barriers.get(group)
    if (latch != null) latch.countDown()
    else {
      Option(totals.get(group)).foreach(_.jobs.incrementAndGet())
      Option(jobSpan.remove(e.jobId)).foreach { case (id, parent, start) =>
        trace.add(Trace.Span(id, parent, "spark.job", toNano(start), toNano(e.time),
          Map("job_id" -> e.jobId, "group" -> group, "succeeded" -> (e.jobResult == JobSucceeded))))
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val info  = e.stageInfo
    val group = stageGroup.get(info.stageId)
    if (group == null) return
    Option(totals.get(group)).foreach(_.stages.incrementAndGet())
    Option(stageSpan.get(info.stageId)).foreach { case (id, job) =>
      trace.add(Trace.Span(id, job, "spark.stage",
        toNano(info.submissionTime.getOrElse(0L)), toNano(info.completionTime.getOrElse(0L)),
        Map("stage_id" -> info.stageId, "tasks" -> info.numTasks, "name" -> info.name)))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val group = stageGroup.get(e.stageId)
    val m     = e.taskMetrics
    if (group == null || m == null) return
    Option(totals.get(group)).foreach(_.add(m))
    if (trace.enabled) {
      val parent = Option(stageSpan.get(e.stageId)).map(_._1).getOrElse(0L)
      trace.add(Trace.Span(trace.newId(), parent, "spark.task",
        toNano(e.taskInfo.launchTime), toNano(e.taskInfo.finishTime),
        Map("stage_id" -> e.stageId, "cpu_ms" -> m.executorCpuTime / 1e6,
            "run_ms" -> m.executorRunTime, "gc_ms" -> m.jvmGCTime)))
    }
  }
}

object SparkMeter {
  private val BarrierPrefix = "barrier#"

  /** Sums over the tasks of one measured action. */
  final class Totals {
    val jobs, stages, tasks                 = new AtomicLong(0L)
    val cpuNs, runMs, gcMs, maxTaskRunMs    = new AtomicLong(0L)
    val shuffleRead, shuffleWrite, spill    = new AtomicLong(0L)

    private[SparkMeter] def add(m: TaskMetrics): Unit = {
      tasks.incrementAndGet()
      cpuNs.addAndGet(m.executorCpuTime)
      runMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      maxTaskRunMs.accumulateAndGet(m.executorRunTime, (a, b) => math.max(a, b))
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      spill.addAndGet(m.memoryBytesSpilled + m.diskBytesSpilled)
    }
  }
}
