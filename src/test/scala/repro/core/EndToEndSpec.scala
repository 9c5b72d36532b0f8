package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}

/** End-to-end pipeline checks that cut across modules: unique-visitor metrics
  * via distinctPos state merging (§4.2's non-decomposable example) and the
  * full scorecard + inference round trip.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val d = TestFixtures.data(spark)

  test("unique visitors over a week: distinctPos state merge matches DuckDB COUNT(DISTINCT)") {
    // §4.2: per day compute (value > 0) as BSI state, merge states across days
    // with distinctPos, then count — per (segment, metric), summed to totals.
    val uv = d.metricBsi
      .where(col("date").between(1, 7))
      .withColumn("state", expr("bsi_cmp_const(value_bsi, '>', 0)"))
      .groupBy("segment_id", "metric_id")
      .agg(expr("bsi_distinct_pos_agg(state)").as("merged"))
      .groupBy("metric_id")
      .agg(sum(expr("bsi_sum(merged)")).as("uv"))
      .select(col("metric_id").cast("int"), col("uv").cast("long"))
    Oracle.assertEquivalent(uv,
      """SELECT CAST(metric_id AS INT) AS metric_id, COUNT(DISTINCT unit_id) AS uv
        |FROM metric WHERE CAST(date AS INT) BETWEEN 1 AND 7 GROUP BY 1""".stripMargin,
      "metric" -> d.metric)
  }

  test("per-strategy unique exposed visitors with a metric value, BSI vs DuckDB") {
    val uv = d.exposeBsi
      .join(d.metricBsi.where(col("date").between(1, 7)), "segment_id")
      .withColumn("expose", expr("bsi_cmp_const(offset_bsi, '<=', cast(7 - min_expose_date + 1 as bigint))"))
      .withColumn("state", expr("bsi_mul(bsi_cmp_const(value_bsi, '>', 0), expose)"))
      .groupBy(col("strategy_id"), col("metric_id"), col("segment_id"))
      .agg(expr("bsi_distinct_pos_agg(state)").as("merged"))
      .groupBy("strategy_id", "metric_id")
      .agg(sum(expr("bsi_count(merged)")).as("uv"))
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("uv").cast("long"))
    Oracle.assertEquivalent(uv,
      """SELECT e.strategy_id AS strategy_id, CAST(m.metric_id AS INT) AS metric_id,
        |       COUNT(DISTINCT m.unit_id) AS uv
        |FROM expose e JOIN metric m ON e.unit_id = m.unit_id
        |WHERE CAST(m.date AS INT) BETWEEN 1 AND 7
        |  AND CAST(e.first_expose_date AS INT) <= 7
        |GROUP BY 1, 2""".stripMargin,
      "expose" -> d.expose, "metric" -> d.metric)
  }

  test("multi-day scorecard: summing daily bucket values equals a DuckDB week total") {
    val week = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, (1 to 7).toSeq)
      .groupBy("strategy_id", "metric_id")
      .agg(sum("bucket_sum").as("total"))
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("total").cast("long"))
    Oracle.assertEquivalent(week,
      """SELECT e.strategy_id AS strategy_id, CAST(m.metric_id AS INT) AS metric_id,
        |       SUM(CAST(m.value AS BIGINT)) AS total
        |FROM expose e JOIN metric m ON e.unit_id = m.unit_id
        |WHERE CAST(m.date AS INT) BETWEEN 1 AND 7
        |  AND CAST(e.first_expose_date AS INT) <= CAST(m.date AS INT)
        |GROUP BY 1, 2""".stripMargin,
      "expose" -> d.expose, "metric" -> d.metric)
  }

  test("scorecard means are sane: per-user means within the metric's value range") {
    val mv = Scorecard.metricValues(
      Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6))).collect()
    val specById = TestFixtures.Specs.map(s => s.metricId -> s).toMap
    mv.foreach { r =>
      val spec = specById(r.getAs[Int]("metric_id"))
      val v = r.getAs[Double]("metric_value")
      assert(v > 0 && v <= spec.rangeCard, s"metric ${spec.metricId} mean $v")
    }
  }

  test("full inference round trip on every strategy pair and metric") {
    val bv = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6))
    val byKey = PreExperiment.collectBucketed(bv, TestFixtures.NSegments)
    for (pair <- TestFixtures.Strategies.grouped(2); spec <- TestFixtures.Specs) {
      val r = Stats.welchTTest(
        byKey((pair(1).strategyId, spec.metricId)),
        byKey((pair(0).strategyId, spec.metricId)))
      assert(!r.pValue.isNaN && r.pValue >= 0 && r.pValue <= 1)
      assert(!r.tStat.isNaN)
      assert(r.meanTreatment > 0 && r.meanControl > 0)
    }
  }

  test("metric covariance across two metrics of one strategy is finite and symmetric") {
    val bv = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6))
    val byKey = PreExperiment.collectBucketed(bv, TestFixtures.NSegments)
    val st = TestFixtures.Strategies.head.strategyId
    val m1 = byKey((st, TestFixtures.Specs(0).metricId))
    val m2 = byKey((st, TestFixtures.Specs(1).metricId))
    val c12 = Stats.covariance(m1, m2)
    val c21 = Stats.covariance(m2, m1)
    assert(math.abs(c12 - c21) < 1e-15)
    assert(!c12.isNaN)
  }
}
