package repro.eval

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Measurement helpers for the evaluation harness. */
object Measure {

  /** Total executor CPU seconds consumed by all Spark tasks that end while
    * `body` runs (the Table 7 "CPU hours" quantity, scaled to seconds).
    * Runs must not overlap — the listener is global.
    *
    * Spark posts a job's end event before the action returns, and the
    * listener bus delivers events in the order they were posted. So after
    * `body` a one-task barrier job runs in a job group of its own: once its
    * start event arrives every task of `body` has been counted, and once its
    * end event arrives the total is final.
    */
  def sparkCpuSeconds[T](spark: SparkSession)(body: => T): (T, Double) = {
    val sc = spark.sparkContext
    val barrierGroup = "repro.eval.Measure barrier"
    val cpuNs = new AtomicLong(0L)
    val barrierDone = new CountDownLatch(1)
    // listener callbacks all run on the listener bus thread
    val listener = new SparkListener {
      private var barrierJob = -1
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == barrierGroup)
          barrierJob = e.jobId
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (barrierJob < 0 && e.taskMetrics != null) cpuNs.addAndGet(e.taskMetrics.executorCpuTime)
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == barrierJob) barrierDone.countDown()
    }
    sc.addSparkListener(listener)
    try {
      val r = body
      sc.setJobGroup(barrierGroup, "listener barrier", interruptOnCancel = false)
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      if (!barrierDone.await(2, TimeUnit.MINUTES))
        throw new IllegalStateException("the listener bus did not deliver the barrier job's end event")
      (r, cpuNs.get() / 1e9)
    } finally sc.removeSparkListener(listener)
  }

  /** Average wall seconds of `body` over `reps` runs after `warmup` runs. */
  def avgSeconds(warmup: Int, reps: Int)(body: => Unit): Double = {
    var i = 0
    while (i < warmup) { body; i += 1 }
    val t0 = System.nanoTime()
    i = 0
    while (i < reps) { body; i += 1 }
    (System.nanoTime() - t0) / 1e9 / reps
  }

  /** Human-readable byte size. */
  def fmtBytes(b: Long): String =
    if (b >= (1L << 30)) f"${b / (1024.0 * 1024 * 1024)}%.2f GB"
    else if (b >= (1L << 20)) f"${b / (1024.0 * 1024)}%.2f MB"
    else if (b >= (1L << 10)) f"${b / 1024.0}%.2f KB"
    else s"$b B"

  /** Render rows as a fixed-width table (for the bench outputs). */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(header.map(_ => "---")) +: rows.map(line)).mkString("\n")
  }
}
