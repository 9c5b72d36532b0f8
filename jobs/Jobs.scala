package repro.jobs

import org.apache.spark.sql.SparkSession

/** spark-submit entrypoints, one per evaluation table. Each prints the paper's
  * numbers next to the measured ones. Args (all optional, positional):
  * nUsers nSegments. Example:
  *
  *   spark-submit --class repro.jobs.Table7Job repro.jar 200000 16
  */
private[jobs] object JobSession {
  def build(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    repro.core.BsiUdfs.register(s)
    s
  }
  def arg(args: Array[String], i: Int, default: Long): Long =
    if (args.length > i) args(i).toLong else default
}

/** Table 3 — value-range-cardinality histogram of the 105 core metrics. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table3")
    println(repro.eval.Table3Eval.run(spark, JobSession.arg(args, 0, 200000L)).rendered)
    spark.stop()
  }
}

/** Table 4 — storage of 105 metrics over 29 days, normal vs BSI. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table4")
    val r = repro.eval.Table4Eval.run(spark,
      nUsers = JobSession.arg(args, 0, 50000L),
      nSegments = JobSession.arg(args, 1, 16L).toInt)
    println(r.rendered)
    spark.stop()
  }
}

/** Tables 5 & 6 — typical metrics A/B/C and single-core two-day sums. */
object Table56Job {
  def main(args: Array[String]): Unit = {
    val scale = if (args.nonEmpty) args(0).toDouble else 1.0
    val r = repro.eval.Table56Eval.run(scale)
    println(r.table5); println(); println(r.table6)
  }
}

/** Table 7 — scorecard pre-computation CPU, normal vs BSI. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table7")
    val r = repro.eval.Table7Eval.run(spark,
      nUsers = JobSession.arg(args, 0, 200000L),
      nSegments = JobSession.arg(args, 1, 16L).toInt,
      nExperiments = JobSession.arg(args, 2, 8L).toInt,
      nMetrics = JobSession.arg(args, 3, 30L).toInt)
    println(r.rendered)
    spark.stop()
  }
}

/** Table 8 — ad-hoc query latency, normal vs BSI. */
object Table8Job {
  def main(args: Array[String]): Unit = {
    val r = repro.eval.Table8Eval.run(
      nUsers = JobSession.arg(args, 0, 100000L),
      nSegments = JobSession.arg(args, 1, 16L).toInt)
    println(r.rendered)
  }
}

/** End-to-end scorecard demo: generates an A/A experiment, computes the BSI
  * scorecard and prints metric values with bucket-based p-values (§4.2 + §3.3).
  */
object ScorecardJob {
  def main(args: Array[String]): Unit = {
    import repro.core._
    import repro.expgen.ExperimentGen
    val spark = JobSession.build("scorecard")
    val nUsers = JobSession.arg(args, 0, 50000L)
    val nSeg   = JobSession.arg(args, 1, 16L).toInt
    val specs  = ExperimentGen.smallMetricSpecs(5)
    val strategies = ExperimentGen.twoArmStrategies(1, trafficPpm = 400000L, startDate = 1, nDays = 5)
    val dict   = ExperimentGen.dictionary(spark, nUsers, nSeg)
    val expose = ExperimentGen.exposeLog(spark, nUsers, strategies, nBuckets = nSeg)
    val metric = ExperimentGen.metricLog(spark, nUsers, specs, Seq(6))
    val bv = Scorecard.bucketValuesSimple(
      BsiConvert.exposeLogToBsi(expose, dict),
      BsiConvert.metricLogToBsi(metric, dict), Seq(6))
    val byKey = PreExperiment.collectBucketed(bv, nSeg)
    specs.foreach { s =>
      val t = byKey((strategies(1).strategyId, s.metricId))
      val c = byKey((strategies(0).strategyId, s.metricId))
      val r = Stats.welchTTest(t, c)
      println(f"metric ${s.metricId}: treatment=${r.meanTreatment}%.4f control=${r.meanControl}%.4f " +
              f"delta=${r.relativeDelta * 100}%.2f%% p=${r.pValue}%.3f")
    }
    spark.stop()
  }
}
