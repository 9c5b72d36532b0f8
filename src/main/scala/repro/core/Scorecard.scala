package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Scorecard computation on the BSI representation (§4.2).
  *
  * For each (strategy, metric, date) the pipeline mirrors the paper's SQL:
  * the expose filter is a constant comparison on the `offset` BSI
  * (`expose-date <= date  ⇔  offset <= date - min_expose_date + 1`), the
  * filtered sum is the value summed over that mask (`value * expose`), and
  * per-bucket sums/counts feed the statistical inference.
  *
  * Output grain: `(strategy_id, metric_id, date, bucket_id, bucket_sum,
  * exposed_cnt)` — `bucket_sum` is the sum of metric values over exposed units
  * in the bucket; `exposed_cnt` counts exposed units (with or without a metric
  * row), the denominator of per-user mean metrics.
  */
object Scorecard {

  /** The common case where segmentation and bucketing coincide (§4.2's demo):
    * the segment id *is* the bucket id, so each joined (strategy, metric,
    * date, segment) row yields exactly one bucket row, scored by the fused
    * `bsi_exposed_sum` cell.
    */
  def bucketValuesSimple(exposeBsi: DataFrame, metricBsi: DataFrame,
                         dates: Seq[Int]): DataFrame =
    joinExpose(exposeBsi, metricBsi, dates)
      .withColumn("cell",
        expr("bsi_exposed_sum(value_bsi, offset_bsi, '<=', cast(date - min_expose_date + 1 as bigint))"))
      .select(col("strategy_id"), col("metric_id"), col("date"), col("segment_id").as("bucket_id"),
              col("cell._1").as("bucket_sum"), col("cell._2").as("exposed_cnt"))

  /** The general case (§4.2, segment ≠ bucket): each joined row is split into
    * per-bucket partial sums by the fused `bsi_bucket_exposed_sum` cell, then
    * merged across segments. A bucket id outside `1..nBuckets` throws
    * `IllegalArgumentException` naming it.
    */
  def bucketValuesBucketed(exposeBsi: DataFrame, metricBsi: DataFrame,
                           dates: Seq[Int], nBuckets: Int): DataFrame = {
    // ids start at 1 by construction: bucket 0 would be absent from the BSI
    val bucketId = udf { (id: Long) => require(id <= nBuckets, s"bucket id $id outside 1..$nBuckets"); id.toInt }
    joinExpose(exposeBsi, metricBsi, dates)
      .withColumn("bs", expr("explode(bsi_bucket_exposed_sum(value_bsi, offset_bsi, '<=', " +
        "cast(date - min_expose_date + 1 as bigint), bucket_bsi))"))
      .groupBy(col("strategy_id"), col("metric_id"), col("date"), bucketId(col("bs._1")).as("bucket_id"))
      .agg(sum(col("bs._2")).as("bucket_sum"), sum(col("bs._3")).as("exposed_cnt"))
  }

  /** Metric BSIs of `dates` joined to their segment's expose BSIs. The expose
    * side (one row per segment × strategy) is broadcast, so the UDFs run in the
    * metric side's (segment × metric × date) partitions with no shuffle.
    */
  private def joinExpose(exposeBsi: DataFrame, metricBsi: DataFrame, dates: Seq[Int]): DataFrame =
    metricBsi.where(col("date").isin(dates: _*)).join(broadcast(exposeBsi), "segment_id")

  /** Roll bucket rows up to one scorecard row per (strategy, metric, date):
    * the metric value `Σ sum / Σ cnt` plus the bucket-replicate moments the
    * [[Stats]] inference consumes.
    */
  def metricValues(bucketValues: DataFrame): DataFrame =
    bucketValues
      .groupBy("strategy_id", "metric_id", "date")
      .agg(
        sum(col("bucket_sum")).as("total_sum"),
        sum(col("exposed_cnt")).as("total_cnt"),
        count(lit(1)).as("n_buckets"))
      .withColumn("metric_value", col("total_sum") / col("total_cnt"))
}
