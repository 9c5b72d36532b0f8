package repro.eval

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.{BsiConvert, BsiUdfs, Scorecard, ScorecardBaseline}
import repro.expgen.ExperimentGen

/** Table 7 — CPU consumed by the scorecard pre-computation over a batch of
  * strategy–metric pairs: normal-format Spark SQL (the pre-BSI production
  * method, §6.2) vs the BSI pipeline (§4.2). Both read pre-materialized
  * inputs (conversion to BSI happens at ingestion in the paper's architecture,
  * Fig. 7, so it is not part of the measured pre-computation). The paper
  * reports CPU hours on a 2000-core cluster; we report executor CPU seconds on
  * `local[*]`, with `spark.sql.adaptive.enabled` at Spark's default (on), which
  * the normal plan's CPU depends on — the ratio is the reproduced quantity. Each
  * plan runs once unmeasured, and each figure is the median of three warm runs.
  */
object Table7Eval {

  final case class Result(pairs: Long, normalCpuSec: Double, bsiCpuSec: Double,
                          normalRows: Long, bsiRows: Long, rendered: String)

  def run(spark: SparkSession, nUsers: Long, nSegments: Int, nExperiments: Int,
          nMetrics: Int): Result = {
    BsiUdfs.register(spark)
    val date       = 8
    val specs      = ExperimentGen.coreMetricSpecs.take(nMetrics)
    val strategies = ExperimentGen.twoArmStrategies(nExperiments, trafficPpm = 100000L, startDate = 1, nDays = 7)

    val dict   = ExperimentGen.dictionary(spark, nUsers, nSegments).cache()
    val expose = ExperimentGen.exposeLog(spark, nUsers, strategies, nBuckets = nSegments)
      // simple case: segment doubles as bucket (§4.2), so the baseline
      // replicates over the same grid the BSI path uses
      .join(dict.select("unit_id", "segment_id"), "unit_id")
      .withColumn("bucket_id", col("segment_id"))
      .drop("segment_id")
      .cache()
    val metric = ExperimentGen.metricLog(spark, nUsers, specs, Seq(date)).cache()
    expose.count(); metric.count(); dict.count()

    val exposeBsi = BsiConvert.exposeLogToBsi(expose, dict).cache()
    val metricBsi = BsiConvert.metricLogToBsi(metric, dict).cache()
    exposeBsi.count(); metricBsi.count()

    // collect(), not count(): under count() column pruning drops the BSI UDFs
    def normal() = ScorecardBaseline.bucketValues(expose, metric, Seq(date)).collect().length.toLong
    def bsi()    = Scorecard.bucketValuesSimple(exposeBsi, metricBsi, Seq(date)).collect().length.toLong
    def cpu(plan: => Long): Double = Measure.sparkCpuSeconds(spark)(plan)._2
    def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.size / 2)
    // one unmeasured run of each plan warms the JVM; then the median of three
    // measurements of each, alternating which plan runs first
    val normalRows = normal(); val bsiRows = bsi()
    val runs = (0 until 3).map { i =>
      if (i % 2 == 0) { val n = cpu(normal()); (n, cpu(bsi())) }
      else { val b = cpu(bsi()); (cpu(normal()), b) }
    }
    val normalCpu = median(runs.map(_._1))
    val bsiCpu    = median(runs.map(_._2))

    Seq(dict, expose, metric, exposeBsi, metricBsi).foreach(_.unpersist())

    val pairs = strategies.size.toLong * specs.size
    val rendered = Measure.renderTable(
      Seq("Format of Representation", "CPU Consumed", "Ratio"),
      Seq(
        Seq("Normal (paper)", "22712 CPU hours", "1.0x"),
        Seq("BSI (paper)", "5446 CPU hours", "4.17x less"),
        Seq("Normal (ours)", f"$normalCpu%.1f CPU seconds", "1.0x"),
        Seq("BSI (ours)", f"$bsiCpu%.1f CPU seconds", f"${normalCpu / bsiCpu}%.2fx less")))
    Result(pairs, normalCpu, bsiCpu, normalRows, bsiRows, rendered)
  }
}
