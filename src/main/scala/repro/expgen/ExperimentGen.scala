package repro.expgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic experiment data in the paper's *normal format* (§3.1, Table 1),
  * substituting for WeChat production logs.
  *
  * Everything is a pure hash of `(ids, seed)` via `xxhash64`, so the same call
  * always generates identical rows regardless of partitioning — the DuckDB
  * oracle and the BSI pipeline see the same data by construction.
  *
  * The two properties the paper's efficiency argument rests on are reproduced
  * explicitly:
  *   - value-range cardinalities follow the Table 3 histogram
  *     ([[coreMetricSpecs]]), and values concentrate near 0 (Pareto-like,
  *     Fig. 4–5) via `rangeCard^(u³)` sampling;
  *   - user engagement decreases in `unit_id`, participation is proportional
  *     to engagement, and the position encoding orders by engagement, so
  *     frequent users land at small positions (§3.4.1).
  *
  * Dates are integer day indexes (1, 2, …) — the paper's date arithmetic
  * (`min-expose-date + offset - 1`) is ordinary integer arithmetic here.
  */
object ExperimentGen {

  /** One metric's shape: the attainable value range (0, rangeCard] and the
    * base participation rate (fraction of users with a value on a given day,
    * in parts-per-million).
    */
  final case class MetricSpec(metricId: Int, rangeCard: Long, basePartPpm: Long)

  /** One experiment strategy (arm): users hash-assigned to the experiment with
    * probability `trafficPpm/1e6`, then uniformly to one of `nArms` arms;
    * first-expose day offsets are geometric(p=0.5) starting at `startDate`
    * (most users exposed in the first days, per §3.5).
    */
  final case class StrategySpec(strategyId: Long, exptId: Long, arm: Int, nArms: Int,
                                trafficPpm: Long, startDate: Int, nDays: Int)

  /** Uniform in [0, 1) as a deterministic hash of the argument columns. */
  private def u01(cols: org.apache.spark.sql.Column*) =
    pmod(xxhash64(cols: _*), lit(1000000000L)).cast(DoubleType) / 1e9

  /** The 105 core-metric specs drawn to the paper's Table 3 histogram:
    * bins (0,10], (10,10²], …, (10⁷,10⁸] with counts 33, 4, 26, 18, 12, 5, 5, 2.
    * Range cardinalities are log-spaced inside each bin; participation varies
    * deterministically per metric in [5%, 45%].
    */
  def coreMetricSpecs: Seq[MetricSpec] = {
    val hist = Seq( // (binLow, binHigh], count — exactly Table 3
      (1L, 10L, 33), (10L, 100L, 4), (100L, 1000L, 26), (1000L, 10000L, 18),
      (10000L, 100000L, 12), (100000L, 1000000L, 5), (1000000L, 10000000L, 5),
      (10000000L, 100000000L, 2))
    var id = 0
    hist.flatMap { case (lo, hi, n) =>
      (0 until n).map { i =>
        id += 1
        // log-spaced in (lo, hi]; i=n-1 hits hi exactly
        val card = math.max(1L, math.round(lo * math.pow(hi.toDouble / lo, (i + 1.0) / n)))
        MetricSpec(id, card, 50000L + (id * 37 % 40) * 10000L)
      }
    }
  }

  /** Small spec sets for unit tests. */
  def smallMetricSpecs(n: Int): Seq[MetricSpec] =
    (1 to n).map(i => MetricSpec(i, Seq(1L, 8L, 100L, 5000L)(i % 4), 200000L + (i % 5) * 100000L))

  /** The analysis-unit universe: `unit_id` 1..n with engagement decreasing in
    * `unit_id` (engagement ∈ (0,1], used to bias participation and ordering).
    */
  def users(spark: SparkSession, nUsers: Long): DataFrame = {
    spark.range(1, nUsers + 1).toDF("unit_id")
      .withColumn("engagement", lit(1.0) - (col("unit_id") - 0.5) / nUsers)
  }

  private def specsDf(spark: SparkSession, specs: Seq[MetricSpec]): DataFrame = {
    import spark.implicits._
    specs.toDF()
  }

  /** splitmix64 finalizer: the hash behind the in-process generators of the
    * evaluators, which fill BSIs directly instead of going through Spark.
    */
  def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform in [0, 1) as a deterministic hash of `x`. */
  def u01(x: Long): Double = (mix(x) >>> 11).toDouble / (1L << 53)

  /** The value draw of [[metricLog]] for one uniform `u` in [0, 1):
    * `rangeCard^(u³)`, clamped to (0, rangeCard], so values concentrate near
    * the low end (Fig. 4–5).
    */
  def paretoValue(rangeCard: Long, u: Double): Long =
    math.max(1L, math.pow(rangeCard.toDouble, u * u * u).toLong).min(rangeCard)

  /** Metric log (normal format): `(date, metric_id, unit_id, value)`.
    * One row per participating (unit, metric, date); `value ≥ 1`.
    */
  def metricLog(spark: SparkSession, nUsers: Long, specs: Seq[MetricSpec],
                dates: Seq[Int], seed: Long = 42): DataFrame = {
    import spark.implicits._
    val datesDf = dates.toDF("date")
    val part = u01(col("unit_id"), col("metricId"), col("date"), lit(seed), lit(1))
    val vU   = u01(col("unit_id"), col("metricId"), col("date"), lit(seed), lit(2))
    users(spark, nUsers)
      .crossJoin(specsDf(spark, specs))
      .crossJoin(datesDf)
      // participation ∝ engagement, marginal rate = basePartPpm/1e6
      .where(part < least(lit(1.0), col("engagement") * 2.0 * col("basePartPpm") / 1e6))
      .select(
        col("date"),
        col("metricId").as("metric_id"),
        col("unit_id"),
        // the draw of paretoValue(rangeCard, vU), as a column expression
        least(col("rangeCard"),
          greatest(lit(1L),
            floor(pow(col("rangeCard").cast(DoubleType), pow(vU, lit(3.0)))).cast(LongType)
          )).as("value"))
  }

  /** Expose log (normal format): `(strategy_id, unit_id, first_expose_date,
    * bucket_id)`. Buckets are 1-based (bucket 0 would vanish inside a BSI).
    */
  def exposeLog(spark: SparkSession, nUsers: Long, strategies: Seq[StrategySpec],
                nBuckets: Int, seed: Long = 42): DataFrame = {
    import spark.implicits._
    val sdf = strategies.toDF()
    val inExpt = u01(col("unit_id"), col("exptId"), lit(seed), lit(3))
    val armOf  = pmod(xxhash64(col("unit_id"), col("exptId"), lit(seed), lit(4)), col("nArms").cast(LongType))
    val offU   = u01(col("unit_id"), col("exptId"), lit(seed), lit(5))
    // geometric(p=0.5) day offset, truncated to the experiment length
    val offset = least(col("nDays").cast(LongType),
                       (floor(log(lit(1.0) - offU) / math.log(0.5)) + 1).cast(LongType))
    users(spark, nUsers)
      .crossJoin(sdf)
      .where(inExpt < col("trafficPpm") / 1e6 && armOf === col("arm").cast(LongType))
      .select(
        col("strategyId").as("strategy_id"),
        col("unit_id"),
        (col("startDate") + offset - 1).cast(IntegerType).as("first_expose_date"),
        (pmod(xxhash64(col("unit_id"), lit("bucket"), lit(seed)), lit(nBuckets.toLong)) + 1)
          .cast(IntegerType).as("bucket_id"))
  }

  /** Dimension log (normal format): `(date, dim_name, unit_id, value)` for the
    * §4.4 dimensions: `client-type` ∈ 1..3 and `client-version` ∈ 100..140
    * (stable per user across dates, as client attributes mostly are).
    */
  def dimensionLog(spark: SparkSession, nUsers: Long, dates: Seq[Int],
                   seed: Long = 42): DataFrame = {
    import spark.implicits._
    val datesDf = dates.toDF("date")
    val base = users(spark, nUsers).crossJoin(datesDf)
    val ct = base.select(col("date"), lit("client-type").as("dim_name"), col("unit_id"),
      (pmod(xxhash64(col("unit_id"), lit("ct"), lit(seed)), lit(3L)) + 1).as("value"))
    val cv = base.select(col("date"), lit("client-version").as("dim_name"), col("unit_id"),
      (pmod(xxhash64(col("unit_id"), lit("cv"), lit(seed)), lit(41L)) + 100).as("value"))
    ct.unionByName(cv)
  }

  /** Segmentation + position-encoding dictionary (§3.2, §3.4.1):
    * `(segment_id, unit_id, pos)` with `segment_id = HASH(unit) % nSegments`
    * (independent of traffic randomization) and `pos` dense from 0 within each
    * segment, ordered by engagement descending so frequent users get small
    * positions.
    */
  def dictionary(spark: SparkSession, nUsers: Long, nSegments: Int, seed: Long = 42): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val seg = pmod(xxhash64(col("unit_id"), lit("segment"), lit(seed)), lit(nSegments.toLong))
      .cast(IntegerType)
    val w = Window.partitionBy(col("segment_id")).orderBy(col("engagement").desc, col("unit_id"))
    users(spark, nUsers)
      .withColumn("segment_id", seg)
      .withColumn("pos", row_number().over(w) - 1)
      .select("segment_id", "unit_id", "pos")
  }

  /** A balanced set of 2-arm experiments: `nExperiments` experiments, each with
    * strategies `(exptId*10+1, exptId*10+2)`, all starting at `startDate`.
    */
  def twoArmStrategies(nExperiments: Int, trafficPpm: Long, startDate: Int,
                       nDays: Int): Seq[StrategySpec] =
    (1 to nExperiments).flatMap { e =>
      Seq(
        StrategySpec(e * 10L + 1, e.toLong, 0, 2, trafficPpm, startDate, nDays),
        StrategySpec(e * 10L + 2, e.toLong, 1, 2, trafficPpm, startDate, nDays))
    }
}
