package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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
  * row), the denominator of per-user mean metrics. The join to the metric BSIs
  * is inner, so a segment with no row for a (metric, date) drops out of it.
  */
object Scorecard {

  /** The common case where segmentation and bucketing coincide (§4.2's demo):
    * the segment id *is* the bucket id, so each joined (strategy, metric,
    * date, segment) row yields exactly one bucket row.
    */
  def bucketValuesSimple(exposeBsi: DataFrame, metricBsi: DataFrame,
                         dates: Seq[Int]): DataFrame =
    exposedCells(exposeBsi, metricBsi.where(col("date").isin(dates: _*)), dayOffset, col("date"))

  /** The general case (§4.2, segment ≠ bucket): each joined row is split into
    * per-bucket partial sums by the fused `bsi_bucket_exposed_sum` cell, then
    * merged across segments. A bucket id outside `1..nBuckets` throws
    * `IllegalArgumentException` naming it.
    */
  def bucketValuesBucketed(exposeBsi: DataFrame, metricBsi: DataFrame,
                           dates: Seq[Int], nBuckets: Int): DataFrame = {
    // ids start at 1 by construction: bucket 0 would be absent from the BSI
    val bucketId = udf { (id: Long) => require(id <= nBuckets, s"bucket id $id outside 1..$nBuckets"); id.toInt }
    metricBsi.where(col("date").isin(dates: _*)).join(broadcast(exposeBsi), "segment_id")
      .withColumn("bs", explode(call_udf("bsi_bucket_exposed_sum", col("value_bsi"), col("offset_bsi"),
                                         dayOffset, col("bucket_bsi"))))
      .groupBy(col("strategy_id"), col("metric_id"), col("date"), bucketId(col("bs._1")).as("bucket_id"))
      .agg(sum(col("bs._2")).as("bucket_sum"), sum(col("bs._3")).as("exposed_cnt"))
  }

  /** A scored day's expose bound: `expose-date <= date ⇔ offset <= k`. */
  private def dayOffset: Column = expr("cast(date - min_expose_date + 1 as bigint)")

  /** Segment = bucket cells (strategy, metric, `keys`, bucket, sum, count): the
    * metric BSIs join their segment's expose BSIs by broadcast, so the fused
    * `bsi_exposed_sum` cell (mask `offset <= k`) runs with no shuffle.
    */
  private[core] def exposedCells(exposeBsi: DataFrame, metricBsi: DataFrame, k: Column, keys: Column*): DataFrame =
    metricBsi.join(broadcast(exposeBsi), "segment_id")
      .withColumn("cell", call_udf("bsi_exposed_sum", col("value_bsi"), col("offset_bsi"), k))
      .select(Seq(col("strategy_id"), col("metric_id")) ++ keys ++ Seq(col("segment_id").as("bucket_id"),
              col("cell._1").as("bucket_sum"), col("cell._2").as("exposed_cnt")): _*)

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
