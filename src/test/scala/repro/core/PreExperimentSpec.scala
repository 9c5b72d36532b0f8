package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.bsi.BSICodec

/** Pre-experiment (CUPED) computation (§4.3): sumBSI over the pre-period,
  * oracle-checked.
  */
class PreExperimentSpec extends SparkSpec {

  private lazy val d = TestFixtures.data(spark)
  // metrics exist on days 1..8; pretend the experiment starts on day 5 with a
  // 4-day pre-period (days 1..4)
  private val start = 5
  private val c     = 4

  test("pre-period sums match a DuckDB per-unit aggregation") {
    val p2u = d.dict.collect().map(r => (r.getAs[Int]("segment_id"), r.getAs[Int]("pos")) ->
      r.getAs[Long]("unit_id")).toMap
    val preSum = PreExperiment.preSumDirect(d.metricBsi, start, c).collect()
    import spark.implicits._
    val decoded = preSum.flatMap { r =>
      val seg = r.getAs[Int]("segment_id")
      BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi")).toPairs.map { case (pos, v) =>
        (r.getAs[Int]("metric_id"), p2u((seg, pos)), v)
      }
    }.toSeq.toDF("metric_id", "unit_id", "pre_sum")
    Oracle.assertEquivalent(
      decoded.select(col("metric_id").cast("int"), col("unit_id").cast("long"),
                     col("pre_sum").cast("long")),
      s"""SELECT CAST(metric_id AS INT) AS metric_id, CAST(unit_id AS BIGINT) AS unit_id,
         |       SUM(CAST(value AS BIGINT)) AS pre_sum
         |FROM metric WHERE CAST(date AS INT) BETWEEN ${start - c} AND ${start - 1}
         |GROUP BY 1, 2""".stripMargin,
      "metric" -> d.metric)
  }

  test("pre-experiment bucket values match a DuckDB evaluation over all exposed units") {
    val preSum = PreExperiment.preSumDirect(d.metricBsi, start, c)
    val bv = PreExperiment.bucketValuesSimple(d.exposeBsi, preSum)
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("bucket_id").cast("int"), col("bucket_sum").cast("long"),
              col("exposed_cnt").cast("long"))
    Oracle.assertEquivalent(bv, PreExperimentSpec.oracleSql(start, c),
      "expose" -> d.expose, "metric" -> d.metric)
  }

  test("CUPED plan, preSumDirect included, has no shuffle and no broadcast exchange") {
    val bv = PreExperiment.bucketValuesSimple(d.exposeBsi, PreExperiment.preSumDirect(d.metricBsi, start, c))
    assert(ScorecardSpec.exchanges(bv) == (0, 0))
  }

  test("CUPED on generated data: covariate is the same metric pre-period, variance drops") {
    // Y = metric on day 6, X = pre-period sum; generator draws are i.i.d. per
    // (unit, date) so the unit-level correlation is weak but the machinery
    // must still produce finite, consistent adjustments.
    val y = PreExperiment.collectBucketed(
      Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, Seq(6)),
      TestFixtures.NSegments)
    val x = PreExperiment.collectBucketed(
      PreExperiment.bucketValuesSimple(d.exposeBsi, PreExperiment.preSumDirect(d.metricBsi, start, c))
        .withColumn("date", lit(0)),
      TestFixtures.NSegments)
    val s = TestFixtures.Strategies
    val spec = TestFixtures.Specs.head
    val r = Stats.cupedTTest(
      y((s(1).strategyId, spec.metricId)), x((s(1).strategyId, spec.metricId)),
      y((s(0).strategyId, spec.metricId)), x((s(0).strategyId, spec.metricId)))
    assert(!r.pValue.isNaN && r.pValue >= 0 && r.pValue <= 1)
    assert(r.pValue > 0.001, s"A/A rejected under CUPED: $r")
  }
}

object PreExperimentSpec {
  /** DuckDB pre-period bucket values over all exposed units: every metric with a
    * pre-period row, crossed with every (strategy, bucket) that has an exposed unit.
    */
  def oracleSql(start: Int, c: Int): String =
    s"""WITH pre AS (
       |  SELECT metric_id, unit_id, SUM(CAST(value AS BIGINT)) AS s
       |  FROM metric WHERE CAST(date AS INT) BETWEEN ${start - c} AND ${start - 1}
       |  GROUP BY 1, 2),
       |metrics AS (SELECT DISTINCT metric_id FROM pre),
       |counts AS (
       |  SELECT strategy_id, bucket_id, COUNT(*) AS exposed_cnt FROM expose GROUP BY 1, 2),
       |sums AS (
       |  SELECT e.strategy_id AS strategy_id, p.metric_id AS metric_id,
       |         e.bucket_id AS bucket_id, SUM(p.s) AS s
       |  FROM expose e JOIN pre p ON e.unit_id = p.unit_id
       |  GROUP BY 1, 2, 3)
       |SELECT c.strategy_id AS strategy_id, CAST(mt.metric_id AS INT) AS metric_id,
       |       c.bucket_id AS bucket_id, COALESCE(s.s, 0) AS bucket_sum,
       |       c.exposed_cnt AS exposed_cnt
       |FROM counts c CROSS JOIN metrics mt
       |LEFT JOIN sums s ON s.strategy_id = c.strategy_id AND s.metric_id = mt.metric_id
       |                AND s.bucket_id = c.bucket_id""".stripMargin
}
