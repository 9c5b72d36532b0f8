package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The paper's *normal-format* scorecard baseline (§6.2): plain Spark SQL over
  * the un-encoded expose and metric logs — the method WeChat used before BSI
  * and the comparator for Table 7. Produces the same output grain as
  * [[Scorecard]] so results can be diffed row-for-row.
  */
object ScorecardBaseline {

  /** Per-bucket sums and exposed counts from normal-format logs, at the grain
    * of the expose log's `bucket_id`. For the §4.2 simple case callers join the
    * dictionary upstream and set `bucket_id` to the unit's segment id.
    */
  def bucketValues(exposeLog: DataFrame, metricLog: DataFrame, dates: Seq[Int]): DataFrame = {
    val spark = exposeLog.sparkSession
    import spark.implicits._
    val datesDf = dates.toDF("d")
    // exposed units per (strategy, date, bucket) — denominator, metric-independent
    val counts = exposeLog
      .crossJoin(datesDf)
      .where(col("first_expose_date") <= col("d"))
      .groupBy(col("strategy_id"), col("d").as("date"), col("bucket_id"))
      .agg(count(lit(1)).as("exposed_cnt"))
    // metric sums over exposed units per (strategy, metric, date, bucket)
    val sums = exposeLog
      .join(metricLog, "unit_id")
      .where(col("first_expose_date") <= col("date"))
      .groupBy(col("strategy_id"), col("metric_id"), col("date"), col("bucket_id"))
      .agg(sum(col("value")).as("bucket_sum"))
    // a bucket can have exposed units but no metric rows → sum 0
    val metricIds = metricLog.select("metric_id").distinct()
    counts
      .crossJoin(metricIds)
      .join(sums, Seq("strategy_id", "metric_id", "date", "bucket_id"), "left")
      .na.fill(0L, Seq("bucket_sum"))
      .where(col("date").isin(dates.map(Integer.valueOf): _*))
      .select("strategy_id", "metric_id", "date", "bucket_id", "bucket_sum", "exposed_cnt")
  }
}
