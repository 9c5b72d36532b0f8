package repro.core

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}

import repro.{Oracle, SparkSpec}
import repro.bsi.{BSICodec, RefModel}

/** Deep-dive dimension filtering (§4.4): the Spark-free cohort against the
  * reference model, and the deep-dive scorecard oracle-checked against DuckDB
  * over the normal logs.
  */
class DeepDiveSpec extends SparkSpec {

  private lazy val d = TestFixtures.data(spark)
  private val preds = Seq(
    DeepDive.DimPredicate("client-type", "=", 1L),
    DeepDive.DimPredicate("client-version", ">", 120L))
  private val strategyIds = TestFixtures.Strategies.map(_.strategyId)
  private val dates = Seq(6)

  test("cohort positions are exactly the units satisfying every predicate") {
    val p2u = d.dict.collect().map(r => (r.getAs[Int]("segment_id"), r.getAs[Int]("pos")) ->
      r.getAs[Long]("unit_id")).toMap
    val got = d.dimBsi.where(col("date") === 6).collect().groupBy(_.getAs[Int]("segment_id")).toSeq.flatMap {
      case (seg, rows) =>
        val dims = rows.map(r => r.getAs[String]("dim_name") -> BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi")))
        DeepDive.cohort(dims.toMap, preds).toSeq.flatMap(_.toArray.map(pos => p2u((seg, pos))))
    }.toSet
    val dimRows = d.dim.collect()
    val ct = dimRows.filter(r => r.getAs[String]("dim_name") == "client-type" &&
      r.getAs[Long]("value") == 1L).map(_.getAs[Long]("unit_id")).toSet
    val cv = dimRows.filter(r => r.getAs[String]("dim_name") == "client-version" &&
      r.getAs[Long]("value") > 120L).map(_.getAs[Long]("unit_id")).toSet
    assert(got == ct.intersect(cv))
    assert(got.nonEmpty, "fixture should select a non-trivial cohort")
  }

  test("property: cohort equals the reference conjunction, or None") {
    import RefModel._
    val ops: Map[String, (Long, Long) => Boolean] =
      Map("<" -> (_ < _), "<=" -> (_ <= _), ">" -> (_ > _), ">=" -> (_ >= _), "=" -> (_ == _), "!=" -> (_ != _))
    val names = Seq("a", "b", "c")
    val genRef = for {
      n <- Gen.choose(0, 200); mx <- Gen.oneOf(1L, 7L, 100L, 1L << 40); seed <- Gen.choose(0L, 1L << 40)
    } yield random(seed, n, 256, mx)
    val genK = Gen.oneOf(Gen.choose(-2L, 8L), Gen.choose(98L, 101L),
                         Gen.oneOf(Long.MinValue, (1L << 40) - 1, 1L << 40, Long.MaxValue))
    val genPred = for (dim <- Gen.oneOf(names); op <- Gen.oneOf(ops.keys.toSeq); k <- genK)
      yield DeepDive.DimPredicate(dim, op, k)
    val gen = for {
      refs    <- Gen.listOfN(names.size, genRef)
      present <- Gen.someOf(names)
      preds   <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, genPred))
    } yield (names.zip(refs).filter(nr => present.contains(nr._1)).toMap, preds)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), Prop.forAll(gen) {
      case (refs, preds) =>
        val want = Option.when(preds.forall(p => refs.contains(p.dimName)))(
          preds.map(p => compareConst(refs(p.dimName), p.k, ops(p.op))).reduce(_ intersect _))
        DeepDive.cohort(refs.map { case (n, r) => n -> toBsi(r) }, preds).map(bitmapToSet) == want
    })
    assert(res.passed, res.status.toString)
  }

  /** DuckDB deep-dive scorecard of `preds` on day 6 over the normal logs — the independent oracle. */
  private val oracleSql =
    s"""WITH cohort AS (
       |  SELECT ct.unit_id FROM
       |    (SELECT unit_id FROM dim WHERE dim_name = 'client-type'
       |       AND CAST(value AS BIGINT) = 1 AND CAST(date AS INT) = 6) ct
       |  JOIN
       |    (SELECT unit_id FROM dim WHERE dim_name = 'client-version'
       |       AND CAST(value AS BIGINT) > 120 AND CAST(date AS INT) = 6) cv
       |  ON ct.unit_id = cv.unit_id),
       |fexpose AS (SELECT e.* FROM expose e JOIN cohort c ON e.unit_id = c.unit_id),
       |counts AS (
       |  SELECT strategy_id, 6 AS date, bucket_id, COUNT(*) AS exposed_cnt
       |  FROM fexpose WHERE CAST(first_expose_date AS INT) <= 6 GROUP BY 1, 2, 3),
       |sums AS (
       |  SELECT e.strategy_id AS strategy_id, m.metric_id AS metric_id,
       |         CAST(m.date AS INT) AS date, e.bucket_id AS bucket_id,
       |         SUM(CAST(m.value AS BIGINT)) AS s
       |  FROM fexpose e JOIN metric m ON e.unit_id = m.unit_id
       |  WHERE CAST(e.first_expose_date AS INT) <= CAST(m.date AS INT)
       |    AND CAST(m.date AS INT) = 6
       |  GROUP BY 1, 2, 3, 4),
       |metrics AS (SELECT DISTINCT metric_id FROM metric)
       |SELECT c.strategy_id AS strategy_id, mt.metric_id AS metric_id, c.date AS date,
       |       c.bucket_id AS bucket_id, COALESCE(s.s, 0) AS bucket_sum,
       |       c.exposed_cnt AS exposed_cnt
       |FROM counts c CROSS JOIN metrics mt
       |LEFT JOIN sums s ON s.strategy_id = c.strategy_id AND s.metric_id = mt.metric_id
       |                AND s.date = c.date AND s.bucket_id = c.bucket_id""".stripMargin

  private def cells(df: DataFrame) =
    df.select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("date").cast("int"), col("bucket_id").cast("int"),
              col("bucket_sum").cast("long"), col("exposed_cnt").cast("long"))

  test("deep-dive scorecard matches the DuckDB oracle over dimension-joined logs") {
    val bv = DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi, preds, strategyIds,
        dates, filterDate = 6)
    Oracle.assertEquivalent(cells(bv), oracleSql, "expose" -> d.expose, "metric" -> d.metric, "dim" -> d.dim)
  }

  test("deep-dive scorecard plan has no shuffle and no broadcast exchange") {
    assert(ScorecardSpec.exchanges(DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi, preds, strategyIds,
      dates, filterDate = 6)) == (0, 0))
  }

  test("a segment missing a predicate's dimension yields no cells") {
    // segment 0's units lose every client-version row, so its segment has no client-version BSI
    val seg0 = d.dict.where(col("segment_id") === 0).select("unit_id").collect().map(_.getLong(0))
    val dim = d.dim.where(!(col("dim_name") === "client-version" && col("unit_id").isin(seg0.toIndexedSeq: _*)))
      .cache()
    val dBsi = BsiConvert.dimensionLogToBsi(dim, d.dict).cache()
    assert(dBsi.where(col("segment_id") === 0 && col("dim_name") === "client-version").isEmpty)
    val bv = DeepDive.scorecard(d.exposeBsi, d.metricBsi, dBsi, preds, strategyIds, dates, filterDate = 6)
    Oracle.assertEquivalent(cells(bv), oracleSql, "expose" -> d.expose, "metric" -> d.metric, "dim" -> dim)
    Seq(dBsi, dim).foreach(_.unpersist())
  }

  test("deep dive restricts exposure: filtered counts are strictly smaller") {
    val full = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)
      .groupBy("strategy_id").agg(sum("exposed_cnt").as("c")).collect()
      .map(r => r.getAs[Long]("strategy_id") -> r.getAs[Long]("c")).toMap
    val dived = DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi, preds, strategyIds,
        dates, filterDate = 6)
      .groupBy("strategy_id").agg(sum("exposed_cnt").as("c")).collect()
      .map(r => r.getAs[Long]("strategy_id") -> r.getAs[Long]("c")).toMap
    strategyIds.foreach { st =>
      assert(dived(st) < full(st), s"strategy $st: ${dived(st)} !< ${full(st)}")
      assert(dived(st) > 0)
    }
  }

  test("a single equality predicate partitions exposure across its values") {
    val parts = (1L to 3L).map { v =>
      DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi,
          Seq(DeepDive.DimPredicate("client-type", "=", v)), strategyIds, dates, filterDate = 6)
        .agg(sum("exposed_cnt")).collect().head.getLong(0)
    }
    val full = Scorecard.bucketValuesSimple(d.exposeBsi, d.metricBsi, dates)
      .where(col("strategy_id").isin(strategyIds.map(java.lang.Long.valueOf): _*))
      .agg(sum("exposed_cnt")).collect().head.getLong(0)
    assert(parts.sum == full, s"client-type slices $parts should sum to $full")
  }

  test("a predicate op is data, not SQL: an op outside the six is rejected by name") {
    val bad = Seq(DeepDive.DimPredicate("client-type", "=' OR '1", 1L))
    // the failing tasks' stack traces are expected here, so keep them out of the test log
    val taskLoggers = Seq("org.apache.spark.executor.Executor", "org.apache.spark.scheduler.TaskSetManager")
    taskLoggers.foreach(Configurator.setLevel(_, Level.OFF))
    val e = try intercept[Exception](
                  DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi, bad, strategyIds, dates, 6).collect())
            finally taskLoggers.foreach(Configurator.setLevel(_, Level.WARN))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      Option(c.getMessage).exists(_.contains("unknown comparison op: =' OR '1"))), causes.map(_.getMessage))
  }

  test("scorecard rejects an empty predicate list") {
    intercept[IllegalArgumentException](
      DeepDive.scorecard(d.exposeBsi, d.metricBsi, d.dimBsi, Seq.empty, strategyIds, dates, 6))
  }
}
