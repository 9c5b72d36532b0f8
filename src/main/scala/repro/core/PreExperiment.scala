package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Pre-experiment computation (§4.3): the CUPED covariate is the metric summed
  * over the `C` days preceding the experiment start, obtained with `sumBSI`
  * over the daily value BSIs, and then pushed through the same scorecard
  * machinery with the expose filter wide open (every exposed unit was
  * "exposed" relative to the pre-period).
  */
object PreExperiment {

  /** `sumBSI` of the metric over dates `[startDate - c, startDate - 1]`, per
    * (segment, metric), via the `bsi_sum_agg` UDAF.
    */
  def preSumDirect(metricBsi: DataFrame, startDate: Int, c: Int): DataFrame =
    metricBsi
      .where(col("date").between(startDate - c, startDate - 1))
      .groupBy("segment_id", "metric_id")
      .agg(call_udf("bsi_sum_agg", col("value_bsi")).as("value_bsi"))

  /** Per-bucket pre-period sums in the simple segment=bucket case: every exposed unit passes the filter. */
  def bucketValuesSimple(exposeBsi: DataFrame, preSum: DataFrame): DataFrame =
    Scorecard.scored(exposeBsi, preSum.withColumn("date", lit(0)), Seq(0), allExposed = true, nBuckets = None)
      .drop("date")

  /** Collect a segment = bucket values DataFrame (strategy, metric, bucket,
    * sum, cnt), bucket ids `0 until nBuckets`, into [[Stats.BucketedMetric]]s
    * keyed by (strategy, metric).
    */
  def collectBucketed(bucketValues: DataFrame, nBuckets: Int): Map[(Long, Int), Stats.BucketedMetric] =
    bucketValues
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col("bucket_id").cast("int"), col("bucket_sum").cast("long"),
              col("exposed_cnt").cast("long"))
      .collect()
      .groupBy((r: Row) => (r.getLong(0), r.getInt(1)))
      .map { case (k, rows) =>
        k -> Stats.fromRows(rows.toSeq.map(r => (r.getInt(2), r.getLong(3), r.getLong(4))),
                            nBuckets, firstBucketId = 0)
      }
}
