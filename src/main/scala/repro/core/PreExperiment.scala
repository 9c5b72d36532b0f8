package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.bsi.{BSI, BSICodec}
import repro.preagg.PreAggTree

/** Pre-experiment computation (§4.3): the CUPED covariate is the metric summed
  * over the `C` days preceding the experiment start, obtained with `sumBSI`
  * over the daily value BSIs — optionally through the pre-aggregate tree of
  * Fig. 6 — and then pushed through the same scorecard machinery with the
  * expose filter wide open (every exposed unit was "exposed" relative to the
  * pre-period).
  */
object PreExperiment {

  /** `sumBSI` of the metric over dates `[startDate - c, startDate - 1]`, per
    * (segment, metric), via the `bsi_sum_agg` UDAF — the direct path.
    */
  def preSumDirect(metricBsi: DataFrame, startDate: Int, c: Int): DataFrame =
    metricBsi
      .where(col("date").between(startDate - c, startDate - 1))
      .groupBy("segment_id", "metric_id")
      .agg(expr("bsi_sum_agg(value_bsi)").as("value_bsi"))

  /** Same aggregate through a per-(segment, metric) [[PreAggTree]] built over
    * all available dates — the accelerated path. Dates must be contiguous.
    */
  def preSumTree(metricBsi: DataFrame, allDates: Seq[Int], startDate: Int, c: Int): DataFrame = {
    val spark = metricBsi.sparkSession
    import spark.implicits._
    val dates = allDates.sorted
    require(dates == (dates.head to dates.last).toList, "pre-agg tree needs contiguous dates")
    val lo = dates.indexOf(startDate - c)
    val hi = dates.indexOf(startDate - 1)
    require(lo >= 0 && hi >= 0, s"pre-period [$startDate-$c, $startDate-1] outside $dates")
    val firstDate = dates.head
    val nDays = dates.size
    metricBsi
      .select(col("segment_id").cast("int"), col("metric_id").cast("int"),
              col("date").cast("int"), col("value_bsi"))
      .as[(Int, Int, Int, Array[Byte])]
      .groupByKey(r => (r._1, r._2))
      .mapGroups { (key: (Int, Int), rows: Iterator[(Int, Int, Int, Array[Byte])]) =>
        val byDay = Array.fill[BSI](nDays)(BSI.empty)
        rows.foreach { case (_, _, d, bytes) => byDay(d - firstDate) = BSICodec.deserialize(bytes) }
        val tree = PreAggTree.sumTree(byDay.toIndexedSeq)
        (key._1, key._2, BSICodec.serialize(tree.query(lo, hi)))
      }
      .toDF("segment_id", "metric_id", "value_bsi")
  }

  /** Per-bucket pre-period sums in the simple segment=bucket case: every
    * exposed unit passes the filter (`expose-date <= someday` with someday at
    * or after the last expose day), so the filter is the offset existence.
    */
  def bucketValuesSimple(exposeBsi: DataFrame, preSum: DataFrame): DataFrame =
    preSum
      .join(broadcast(exposeBsi), "segment_id")
      .withColumn("cell", expr("bsi_exposed_sum(value_bsi, offset_bsi, '>=', 1)")) // all exposed units
      .select(col("strategy_id"), col("metric_id"), col("segment_id").as("bucket_id"),
              col("cell._1").as("bucket_sum"), col("cell._2").as("exposed_cnt"))

  /** Collect a bucket-values DataFrame (strategy, metric, bucket, sum, cnt)
    * into [[Stats.BucketedMetric]]s keyed by (strategy, metric).
    */
  def collectBucketed(bucketValues: DataFrame, nBuckets: Int,
                      bucketCol: String = "bucket_id",
                      firstBucketId: Int = 1): Map[(Long, Int), Stats.BucketedMetric] =
    bucketValues
      .select(col("strategy_id").cast("long"), col("metric_id").cast("int"),
              col(bucketCol).cast("int"), col("bucket_sum").cast("long"),
              col("exposed_cnt").cast("long"))
      .collect()
      .groupBy((r: Row) => (r.getLong(0), r.getInt(1)))
      .map { case (k, rows) =>
        k -> Stats.fromRows(rows.toSeq.map(r => (r.getInt(2), r.getLong(3), r.getLong(4))),
                            nBuckets, firstBucketId)
      }
}
