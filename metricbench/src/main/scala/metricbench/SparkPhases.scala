package metricbench

import scala.collection.mutable

/** Per-phase Spark totals over the measured passes of a run, reported per pass. */
final class SparkPhases(threads: Int) {
  private final class Acc {
    var passes = 0; var wallMs = 0.0
    var cpuNs, runMs, gcMs, tasks, stages, shRead, shWrite, spill = 0L
    var maxTaskShareSum = 0.0
  }
  private val phases = mutable.LinkedHashMap.empty[String, Acc]

  def add(phase: String, wallMs: Double, t: SparkMeter.Totals): Unit = {
    val a = phases.getOrElseUpdate(phase, new Acc)
    a.passes += 1; a.wallMs += wallMs
    a.cpuNs += t.cpuNs.get; a.runMs += t.runMs.get; a.gcMs += t.gcMs.get
    a.tasks += t.tasks.get; a.stages += t.stages.get
    a.shRead += t.shuffleRead.get; a.shWrite += t.shuffleWrite.get; a.spill += t.spill.get
    a.maxTaskShareSum += t.maxTaskRunMs.get.toDouble / math.max(1L, t.runMs.get)
  }

  /** `spark.<phase>.*` metrics, each per pass. */
  def metrics: Map[String, Double] = phases.flatMap { case (p, a) =>
    val n = a.passes.toDouble
    Seq(
      s"spark.$p.executor_cpu_s"      -> a.cpuNs / 1e9 / n,
      s"spark.$p.busy_share"          -> (a.cpuNs / 1e6) / (a.wallMs * threads),
      s"spark.$p.max_task_share"      -> a.maxTaskShareSum / n,
      s"spark.$p.tasks"               -> a.tasks / n,
      s"spark.$p.stages"              -> a.stages / n,
      s"spark.$p.shuffle_read_bytes"  -> a.shRead / n,
      s"spark.$p.shuffle_write_bytes" -> a.shWrite / n,
      s"spark.$p.spill_bytes"         -> a.spill / n,
      s"spark.$p.gc_ms"               -> a.gcMs / n)
  }.toMap
}
