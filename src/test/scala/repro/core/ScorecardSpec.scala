package repro.core

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, ShuffleExchangeExec}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.adhoc.AdhocEngine
import repro.bsi.BSICodec

/** Scorecard correctness (§4.2): the BSI pipeline must match both the
  * normal-format Spark SQL baseline and an independent DuckDB evaluation of
  * the same query over the normal logs.
  */
class ScorecardSpec extends SparkSpec {

  private lazy val d = TestFixtures.data(spark)
  private val dates = Seq(3, 6) // day 3 is mid-rollout: the expose filter bites

  /** DuckDB scorecard over the normal logs — the independent oracle. */
  private def oracleSql(dates: Seq[Int]): String = {
    val dlist = dates.mkString("(", "), (", ")")
    s"""WITH dates(d) AS (VALUES $dlist),
       |counts AS (
       |  SELECT e.strategy_id AS strategy_id, d.d AS date, e.bucket_id AS bucket_id,
       |         COUNT(*) AS exposed_cnt
       |  FROM expose e, dates d
       |  WHERE CAST(e.first_expose_date AS INT) <= d.d
       |  GROUP BY 1, 2, 3),
       |sums AS (
       |  SELECT e.strategy_id AS strategy_id, m.metric_id AS metric_id,
       |         CAST(m.date AS INT) AS date, e.bucket_id AS bucket_id,
       |         SUM(CAST(m.value AS BIGINT)) AS s
       |  FROM expose e JOIN metric m ON e.unit_id = m.unit_id
       |  WHERE CAST(e.first_expose_date AS INT) <= CAST(m.date AS INT)
       |    AND CAST(m.date AS INT) IN (${dates.mkString(", ")})
       |  GROUP BY 1, 2, 3, 4),
       |metrics AS (SELECT DISTINCT metric_id FROM metric)
       |SELECT c.strategy_id AS strategy_id, mt.metric_id AS metric_id, c.date AS date,
       |       c.bucket_id AS bucket_id, COALESCE(s.s, 0) AS bucket_sum,
       |       c.exposed_cnt AS exposed_cnt
       |FROM counts c CROSS JOIN metrics mt
       |LEFT JOIN sums s ON s.strategy_id = c.strategy_id AND s.metric_id = mt.metric_id
       |                AND s.date = c.date AND s.bucket_id = c.bucket_id
       |""".stripMargin
  }

  test("BSI scorecard (simple case) matches the DuckDB oracle") {
    val bsi = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("date").cast("int"), col("bucket_id").cast("int"),
              col("bucket_sum").cast("long"), col("exposed_cnt").cast("long"))
    Oracle.assertEquivalent(bsi, oracleSql(dates), "expose" -> d.expose, "metric" -> d.metric)
  }

  test("simple scorecard plan has no shuffle and no broadcast exchange") {
    assert(ScorecardSpec.exchanges(Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)) == (0, 0))
  }

  test("bucketed scorecard plan has one exchange: the cross-segment merge") {
    val eBsi = trueBuckets(TestFixtures.NSegments)._2.cache() // stored, as the scorers read it
    try assert(ScorecardSpec.exchanges(Scorecard.bucketValuesBucketed(eBsi, d.metricBsi, dates, 8)) == (1, 0))
    finally eBsi.unpersist()
  }

  test("normal-format Spark SQL baseline matches the DuckDB oracle") {
    val base = ScorecardBaseline.bucketValues(d.expose, d.metric, dates)
    Oracle.assertEquivalent(base, oracleSql(dates), "expose" -> d.expose, "metric" -> d.metric)
  }

  test("BSI scorecard equals the Spark SQL baseline row-for-row") {
    val bsi  = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)
    val base = ScorecardBaseline.bucketValues(d.expose, d.metric, dates)
    val key  = Seq("strategy_id", "metric_id", "date", "bucket_id")
    assert(bsi.count() == base.count())
    val joined = bsi.alias("a").join(base.alias("b"), key)
      .where(col("a.bucket_sum") =!= col("b.bucket_sum") ||
             col("a.exposed_cnt") =!= col("b.exposed_cnt"))
    assert(joined.count() == 0)
  }

  /** The fixture's expose log with the generator's 1-based `bucket_id` in
    * `1..nBuckets` kept (the fixture's own expose BSI carries segment ids).
    */
  private def trueBuckets(nBuckets: Int) = {
    val raw = repro.expgen.ExperimentGen.exposeLog(
      spark, TestFixtures.NUsers, TestFixtures.Strategies, nBuckets, TestFixtures.Seed)
    (raw, BsiConvert.exposeLogToBsi(raw, d.dict))
  }

  test("bucketed scorecard (segment ≠ bucket) aggregates to the same totals") {
    val nB = TestFixtures.NSegments // bucket ids 1..8 from the generator
    // the fixture's exposeBsi carries segment-as-bucket ids (0-based, invalid
    // inside a BSI where 0 = absent); use the generator's true 1-based buckets
    val (_, eBsiTrue) = trueBuckets(nB)
    val bucketed = Scorecard.bucketValuesBucketed(eBsiTrue, d.metricBsi, dates, nB)
    val simple   = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)
    val tb = bucketed.groupBy("strategy_id", "metric_id", "date")
      .agg(sum("bucket_sum").as("s"), sum("exposed_cnt").as("c"))
    val ts = simple.groupBy("strategy_id", "metric_id", "date")
      .agg(sum("bucket_sum").as("s"), sum("exposed_cnt").as("c"))
    assert(tb.count() == ts.count())
    assert(tb.alias("a").join(ts.alias("b"), Seq("strategy_id", "metric_id", "date"))
      .where(col("a.s") =!= col("b.s") || col("a.c") =!= col("b.c")).count() == 0)
  }

  test("bucketed scorecard matches a bucket-grain DuckDB oracle") {
    // at the fixture's 8 buckets and at the paper's 1024 (~600 units per arm, so most buckets hold 0-2)
    for (nB <- Seq(TestFixtures.NSegments, 1024)) {
      val (raw, eBsi) = trueBuckets(nB)
      val bsi = Scorecard.bucketValuesBucketed(eBsi, d.metricBsi, dates, nB)
        .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
                col("date").cast("int"), col("bucket_id").cast("int"),
                col("bucket_sum").cast("long"), col("exposed_cnt").cast("long"))
      Oracle.assertEquivalent(bsi, oracleSql(dates), "expose" -> raw, "metric" -> d.metric)
    }
  }

  test("bucketed scorecard rejects a bucket id above nBuckets by name") {
    val (_, eBsi) = trueBuckets(TestFixtures.NSegments)
    // the failing tasks' stack traces are expected here, so keep them out of the test log
    val taskLoggers = Seq("org.apache.spark.executor.Executor", "org.apache.spark.scheduler.TaskSetManager")
    taskLoggers.foreach(Configurator.setLevel(_, Level.OFF))
    val e = try intercept[Exception](Scorecard.bucketValuesBucketed(eBsi, d.metricBsi, dates, 5).collect())
            finally taskLoggers.foreach(Configurator.setLevel(_, Level.WARN))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      Option(c.getMessage).exists(_.matches("(?s).*bucket id [678] outside 1\\.\\.5.*"))), causes.map(_.getMessage))
  }

  test("a segment with no metric row keeps its exposed units in every scorer") {
    // metric 1 loses its segment-0 rows on day 6 and on every pre-period day (1..4)
    val seg0 = d.dict.where(col("segment_id") === 0).select("unit_id").collect().map(_.getLong(0))
    val metric = d.metric.where(!(col("metric_id") === 1 && col("unit_id").isin(seg0.toIndexedSeq: _*) &&
      (col("date") === 6 || col("date").between(1, 4)))).cache()
    val mBsi = BsiConvert.metricLogToBsi(metric, d.dict).cache()
    assert(mBsi.where(col("segment_id") === 0 && col("metric_id") === 1 && col("date").isin(1, 2, 3, 4, 6))
      .isEmpty)
    def cells(df: DataFrame) = df.select(Seq(col("strategy_id").cast("long"), col("metric_id").cast("int")) ++
      (if (df.columns.contains("date")) Seq(col("date").cast("int")) else Nil) ++
      Seq(col("bucket_id").cast("int"), col("bucket_sum").cast("long"), col("exposed_cnt").cast("long")): _*)
    val simple = Scorecard.bucketValuesSimple(d.exposeBsi, mBsi, dates)
    Oracle.assertEquivalent(cells(simple), oracleSql(dates), "expose" -> d.expose, "metric" -> metric)
    for (nB <- Seq(TestFixtures.NSegments, 1024)) {
      val (raw, eBsi) = trueBuckets(nB)
      Oracle.assertEquivalent(cells(Scorecard.bucketValuesBucketed(eBsi, mBsi, dates, nB)), oracleSql(dates),
        "expose" -> raw, "metric" -> metric)
    }
    val pre = PreExperiment.bucketValuesSimple(d.exposeBsi, PreExperiment.preSumDirect(mBsi, 5, 4))
    Oracle.assertEquivalent(cells(pre), PreExperimentSpec.oracleSql(5, 4), "expose" -> d.expose, "metric" -> metric)

    // the ad-hoc tier, loaded with the same BSIs, gives the same totals
    val engine = new AdhocEngine(TestFixtures.NSegments, nThreads = 2)
    d.exposeBsi.collect().foreach(r => engine.loadExposeBsi(r.getAs[Int]("segment_id"), r.getAs[Long]("strategy_id"),
      r.getAs[Int]("min_expose_date"), BSICodec.deserialize(r.getAs[Array[Byte]]("offset_bsi"))))
    mBsi.collect().foreach(r => engine.loadMetricBsi(r.getAs[Int]("segment_id"), r.getAs[Int]("metric_id"),
      r.getAs[Int]("date"), BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi"))))
    val totals = simple.groupBy("strategy_id", "metric_id", "date")
      .agg(sum("bucket_sum").cast("long"), sum("exposed_cnt").cast("long")).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2)) -> (r.getLong(3), r.getLong(4))).toMap
    val adhoc = engine.queryBsi(TestFixtures.Strategies.map(_.strategyId), TestFixtures.Specs.map(_.metricId), dates)
    assert(adhoc.map(c => (c.strategyId, c.metricId, c.date) -> (c.sum, c.exposedCnt)).toMap == totals)
    Seq(mBsi, metric).foreach(_.unpersist())
  }

  test("metricValues rolls buckets up to Σsum/Σcnt") {
    val bv = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6))
    val mv = Scorecard.metricValues(bv).collect()
    assert(mv.nonEmpty)
    mv.foreach { r =>
      val s = r.getAs[Long]("total_sum"); val c = r.getAs[Long]("total_cnt")
      assert(r.getAs[Double]("metric_value") == s.toDouble / c)
      assert(r.getAs[Long]("n_buckets") <= TestFixtures.NSegments)
    }
  }

  test("expose filter: earlier dates expose fewer units, sums are monotone in date") {
    val bv = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(1, 6))
      .groupBy("strategy_id", "metric_id", "date")
      .agg(sum("exposed_cnt").as("cnt"))
      .collect()
      .groupBy(r => (r.getAs[Long]("strategy_id"), r.getAs[Int]("metric_id")))
    bv.values.foreach { rows =>
      val byDate = rows.map(r => r.getAs[Int]("date") -> r.getAs[Long]("cnt")).toMap
      assert(byDate(1) < byDate(6), s"exposure should grow over the rollout: $byDate")
    }
  }

  test("A/A inference on scorecard outputs: all metrics have p > 0.001") {
    val bv = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6))
    val byKey = PreExperiment.collectBucketed(bv, TestFixtures.NSegments)
    val es = TestFixtures.Strategies.grouped(2).toSeq
    for (pair <- es; spec <- TestFixtures.Specs) {
      val t = byKey((pair(1).strategyId, spec.metricId))
      val c = byKey((pair(0).strategyId, spec.metricId))
      val r = Stats.welchTTest(t, c)
      assert(r.pValue > 0.001,
        s"A/A rejected for strategy pair ${pair.map(_.strategyId)} metric ${spec.metricId}: $r")
    }
  }
}

object ScorecardSpec {
  /** Run `df` and count the (shuffle, broadcast) exchanges of its executed plan. */
  def exchanges(df: DataFrame): (Int, Int) = {
    assert(df.sparkSession.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1")
    df.collect()
    val plan = df.queryExecution.executedPlan
    val helper = new AdaptiveSparkPlanHelper {}
    (helper.collect(plan) { case s: ShuffleExchangeExec => s }.size,
     helper.collect(plan) { case b: BroadcastExchangeExec => b }.size)
  }
}
