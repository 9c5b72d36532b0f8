package metricbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.bsi.{BSI, BSICodec}
import repro.core.{BsiConvert, PreExperiment, Scorecard, ScorecardBaseline, Stats}
import repro.expgen.ExperimentGen

/** `precompute_day`: the nightly pre-compute of one scored day (Table 7
  * shape) through the Spark BSI pipeline. Each pass runs three steps:
  *   - the simple scorecard (segment = bucket) and a Welch t-test per pair;
  *   - the bucketed scorecard at 1024 buckets on a strategy/metric subset;
  *   - CUPED: `preSumDirect` over the C pre-period days, pre-period bucket
  *     values, and `Stats.cupedTTest`.
  * The gate's reference comes from the normal-format logs through
  * `ScorecardBaseline` and plain Spark SQL, plus `Stats`.
  */
object PrecomputeDay {
  val Users         = 150000L
  val Segments      = 16
  val Experiments   = 8
  val TrafficPpm    = 100000L
  val Metrics       = 30
  val StartDate     = 8 // experiment days 8..14; pre-period days 1..7
  val ExptDays      = 7
  val ScoredDay     = 14
  val C             = 7
  val CupedMetrics  = 4
  val Buckets       = 1024
  /** Measured passes per run, however long a pass takes, so that the
    * median never rests on one sample.
    */
  val MinPasses     = 2
  val BucketedExpts = 2 // strategies of the first two experiments
  val BucketedMetrics = 1

  val specs      = ExperimentGen.coreMetricSpecs.take(Metrics)
  val cupedSpecs = specs.take(CupedMetrics)
  val strategies = ExperimentGen.twoArmStrategies(Experiments, TrafficPpm, StartDate, ExptDays)
  val bucketedStrategies = strategies.take(2 * BucketedExpts).map(_.strategyId)
  val bucketedMetricIds  = specs.take(BucketedMetrics).map(_.metricId)
  /** (treatment, control) strategy ids of every experiment. */
  val armPairs: Seq[(Long, Long)] = strategies.grouped(2).map(g => (g(1).strategyId, g(0).strategyId)).toSeq

  def scale: Map[String, Any] = Map("users" -> Users, "segments" -> Segments,
    "experiments" -> Experiments, "strategies" -> strategies.size, "metrics" -> Metrics,
    "scored_day" -> ScoredDay, "pre_period_days" -> C, "cuped_metrics" -> CupedMetrics,
    "buckets" -> Buckets, "bucketed_strategies" -> bucketedStrategies.size,
    "bucketed_metrics" -> BucketedMetrics)

  val scorecardPairs = strategies.size * Metrics
  val scorecardCells = scorecardPairs * Segments
  val bucketedPairs  = bucketedStrategies.size * BucketedMetrics
  val cupedPairs     = strategies.size * CupedMetrics

  type Buckets = Map[(Long, Int, Int), (Long, Long)] // (strategy, metric, bucket) -> (sum, count)

  final class Data(val cached: Seq[DataFrame], val exposeBsi: DataFrame, val metricBsi: DataFrame,
                   val refScorecard: Buckets, val refBucketed: Buckets, val refPre: Buckets) {
    val metricDay = metricBsi.where(col("date") === ScoredDay)
    val refTests         = tests(refScorecard, Segments, 0)
    val refBucketedTests = tests(refBucketed, Buckets, 1)
    val refCupedTests    = cupedTests(refScorecard, refPre)
    def drop(): Unit = cached.foreach(_.unpersist(blocking = true))
  }

  private def collectBuckets(df: DataFrame): Buckets =
    df.select(col("strategy_id").cast("long"), col("metric_id").cast("int"), col("bucket_id").cast("int"),
              col("bucket_sum").cast("long"), col("exposed_cnt").cast("long"))
      .collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2)) -> (r.getLong(3), r.getLong(4))).toMap

  def setup(spark: SparkSession, seed: Long): Data = {
    val dict = ExperimentGen.dictionary(spark, Users, Segments, seed).cache()
    val expose = ExperimentGen.exposeLog(spark, Users, strategies, Buckets, seed).cache()
    val metric = ExperimentGen.metricLog(spark, Users, specs, Seq(ScoredDay), seed)
      .unionByName(ExperimentGen.metricLog(spark, Users, cupedSpecs, StartDate - C until StartDate, seed))
      .cache()
    val exposeBsi = BsiConvert.exposeLogToBsi(expose, dict).cache()
    val metricBsi = BsiConvert.metricLogToBsi(metric, dict).cache()
    exposeBsi.count(); metricBsi.count()

    // Reference: normal-format logs only.
    val exposeSeg = expose.join(dict.select("unit_id", "segment_id"), "unit_id")
      .withColumn("bucket_id", col("segment_id")).drop("segment_id")
    val refScorecard = collectBuckets(ScorecardBaseline.bucketValues(
      exposeSeg, metric.where(col("date") === ScoredDay), Seq(ScoredDay)))
    val refBucketed = collectBuckets(ScorecardBaseline.bucketValues(
      expose.where(col("strategy_id").isin(bucketedStrategies: _*)),
      metric.where(col("date") === ScoredDay && col("metric_id").isin(bucketedMetricIds: _*)),
      Seq(ScoredDay)))
    val pre = metric.where(col("date") < StartDate)
    val preCounts = exposeSeg.groupBy("strategy_id", "bucket_id").agg(count(lit(1)).as("exposed_cnt"))
    val preSums = exposeSeg.join(pre, "unit_id").groupBy("strategy_id", "metric_id", "bucket_id")
      .agg(sum("value").as("bucket_sum"))
    val refPre = collectBuckets(preCounts.crossJoin(pre.select("metric_id").distinct())
      .join(preSums, Seq("strategy_id", "metric_id", "bucket_id"), "left").na.fill(0L, Seq("bucket_sum")))
    new Data(Seq(dict, expose, metric, exposeBsi, metricBsi), exposeBsi, metricBsi,
             refScorecard, refBucketed, refPre)
  }

  private def bucketed(b: Buckets, n: Int, first: Int): Map[(Long, Int), Stats.BucketedMetric] =
    b.groupBy { case ((st, m, _), _) => (st, m) }.map { case (k, rows) =>
      k -> Stats.fromRows(rows.toSeq.map { case ((_, _, bk), (s, c)) => (bk, s, c) }, n, first)
    }

  /** Welch p-value per (treatment strategy, metric). */
  private def tests(b: Buckets, n: Int, first: Int): Map[(Long, Int), Double] = {
    val bm = bucketed(b, n, first)
    (for ((t, c) <- armPairs; m <- bm.keys.filter(_._1 == t).map(_._2))
      yield (t, m) -> Stats.welchTTest(bm((t, m)), bm((c, m))).pValue).toMap
  }

  private def cupedTests(y: Buckets, x: Buckets): Map[(Long, Int), Double] = {
    val by = bucketed(y, Segments, 0); val bx = bucketed(x, Segments, 0)
    (for ((t, c) <- armPairs; spec <- cupedSpecs; m = spec.metricId)
      yield (t, m) -> Stats.cupedTTest(by((t, m)), bx((t, m)), by((c, m)), bx((c, m))).pValue).toMap
  }

  private def checkTests(expected: Map[(Long, Int), Double], got: Map[(Long, Int), Double]): Seq[String] =
    if (expected.keySet != got.keySet) Seq(s"t-test keys differ: ${expected.size} vs ${got.size}")
    else expected.collect { case (k, p) if !Gate.close(p, got(k)) => s"p-value $k: expected $p, got ${got(k)}" }.toSeq

  private def corrupt(b: Buckets): Buckets = {
    val (k, (s, c)) = b.head
    b.updated(k, (s + 1, c))
  }

  final class Pass(val wallMs: Map[String, Double], val cpuNs: Map[String, Long])

  /** One scored day: the three steps, each checked against the reference. */
  private def pass(data: Data, meter: SparkMeter, phases: Option[SparkPhases], gate: Gate,
                   trace: Trace): Pass = {
    val wall = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val cpu  = scala.collection.mutable.LinkedHashMap.empty[String, Long]
    def step[T](phase: String)(body: => T): T = trace.span(s"precompute.$phase") {
      val ((r, totals), ms) = Timing.timedMs(meter.measure(phase)(body))
      wall(phase) = ms; cpu(phase) = totals.cpuNs.get
      phases.foreach(_.add(phase, ms, totals))
      r
    }
    val sc = step("scorecard") {
      val b = collectBuckets(Scorecard.bucketValuesSimple(data.exposeBsi, data.metricDay, Seq(ScoredDay)))
      (b, tests(b, Segments, 0))
    }
    gate.selfTestOnce(sc._1, corrupt, (b: Buckets) => Gate.diff("scorecard", data.refScorecard, b))
    gate.record(Gate.diff("scorecard", data.refScorecard, sc._1) ++ checkTests(data.refTests, sc._2))

    val bk = step("bucketed") {
      val b = collectBuckets(Scorecard.bucketValuesBucketed(
        data.exposeBsi.where(col("strategy_id").isin(bucketedStrategies: _*)),
        data.metricDay.where(col("metric_id").isin(bucketedMetricIds: _*)), Seq(ScoredDay), Buckets))
      (b, tests(b, Buckets, 1))
    }
    gate.record(Gate.diff("bucketed", data.refBucketed, bk._1) ++
      checkTests(data.refBucketedTests, bk._2))

    val cu = step("cuped") {
      val pre = PreExperiment.preSumDirect(data.metricBsi, StartDate, C)
      val b = collectBuckets(PreExperiment.bucketValuesSimple(data.exposeBsi, pre))
      (b, cupedTests(sc._1, b))
    }
    gate.record(Gate.diff("cuped pre-period", data.refPre, cu._1) ++ checkTests(data.refCupedTests, cu._2))
    new Pass(wall.toMap, cpu.toMap)
  }

  def run(args: Args, threads: Int): Outcome = {
    val spark = Main.sparkSession(args, threads)
    try runWith(spark, args, threads) finally spark.stop()
  }

  private def runWith(spark: SparkSession, args: Args, threads: Int): Outcome = {
    val trace = args.traceRecorder
    val meter = new SparkMeter(spark, trace)
    System.gc()
    val (data, setupMs) = Timing.timedMs(setup(spark, args.seed))
    val heapMb = Timing.heapAfterGcMb()
    val gate = new Gate
    val untraced = new Trace(false)
    pass(data, meter, None, gate, untraced) // warm-up

    val (passes, jvm) = Timing.jvmPerOp {
      Timing.closedLoop(args.untracedSeconds, MinPasses)(_ => pass(data, meter, None, gate, untraced))
    }(_.size)

    def total(phase: String) = passes.map(_.wallMs(phase)).sum / 1e3
    val dayMs = passes.map(_.wallMs.values.sum).toSeq
    val pairsPerDay = scorecardPairs + bucketedPairs + cupedPairs
    val e2e = Map(
      "setup_s"       -> setupMs / 1e3,
      "heap_mb"       -> heapMb,
      "op_p50_ms"     -> Timing.median(dayMs),
      "work_per_s"    -> pairsPerDay * passes.size / (dayMs.sum / 1e3),
      "cpu_ms_per_op" -> passes.map(_.cpuNs.values.sum).sum / 1e6 / passes.size)
    val detail = Map[String, Any](
      "scorecard_cells_per_s"     -> scorecardCells * passes.size / total("scorecard"),
      "scorecard_cpu_ms_per_pair" -> passes.map(_.cpuNs("scorecard")).sum / 1e6 / passes.size / scorecardPairs,
      "bucketed_cells_per_s"      -> bucketedPairs * Buckets * passes.size / total("bucketed"),
      "cuped_pairs_per_s"         -> cupedPairs * passes.size / total("cuped"),
      "passes" -> passes.size, "pass_ms" -> passes.map(_.wallMs))

    val layers =
      if (!args.trace) Map.empty[String, Double]
      else {
        val phases = new SparkPhases(threads)
        val traced = trace.span("measure.traced") {
          Timing.closedLoop(args.seconds / 2, MinPasses)(_ => pass(data, meter, Some(phases), gate, trace))
        }
        val overhead = Map(
          "trace.overhead_share" -> (Timing.median(traced.map(_.wallMs.values.sum).toSeq) / e2e("op_p50_ms") - 1),
          "trace.spans" -> trace.size.toDouble)
        val (sample, all) = replaySample(data, args.seed)
        overhead ++ jvm ++ phases.metrics ++ Replay.run(sample, trace) ++ Shape.of(all).metrics("bsi")
      }
    meter.close()
    data.drop()
    Outcome(gate, e2e, detail, layers, scale)
  }

  /** A seeded sample of the workload's own BSIs, and every BSI it holds. */
  private def replaySample(data: Data, seed: Long): (Replay.Sample, Seq[BSI]) = {
    val rng = new scala.util.Random(seed)
    val expose = data.exposeBsi.collect().map { r =>
      (r.getAs[Int]("segment_id"), r.getAs[Long]("strategy_id")) ->
        (r.getAs[Int]("min_expose_date"), BSICodec.deserialize(r.getAs[Array[Byte]]("offset_bsi")),
         BSICodec.deserialize(r.getAs[Array[Byte]]("bucket_bsi")))
    }.toMap
    val values = data.metricBsi.collect().map { r =>
      (r.getAs[Int]("segment_id"), r.getAs[Int]("date"), r.getAs[Int]("metric_id")) ->
        BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi"))
    }.toMap
    val cells = (1 to 48).map { _ =>
      val seg = rng.nextInt(Segments)
      val st = strategies(rng.nextInt(strategies.size)).strategyId
      val m = specs(rng.nextInt(specs.size)).metricId
      val (minDate, offset, bucket) = expose((seg, st))
      Replay.Cell(offset, (ScoredDay - minDate + 1).toLong, values((seg, ScoredDay, m)), Some(bucket), Buckets)
    }
    val series = (1 to 16).map { _ =>
      val seg = rng.nextInt(Segments); val m = cupedSpecs(rng.nextInt(cupedSpecs.size)).metricId
      (StartDate - C until StartDate).map(d => values.getOrElse((seg, d, m), BSI.empty)).toIndexedSeq
    }
    val bm = bucketed(data.refScorecard, Segments, 0)
    val pairs = armPairs.flatMap { case (t, c) => specs.map(s => (bm((t, s.metricId)), bm((c, s.metricId)))) }
    val all = values.values.toSeq ++ expose.values.flatMap { case (_, o, b) => Seq(o, b) }
    (Replay.Sample(cells, series, pairs.toIndexedSeq), all)
  }
}
