package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.roaringbitmap.RoaringBitmap

import repro.bsi.{BSI, BSICodec}

/** Scorecard computation on the BSI representation (§4.2). BSI tables are
  * stored by segment ([[BsiConvert]]), so a segment's expose and value BSIs
  * meet in one task with no exchange, and [[SegmentScorer]] scores it there.
  *
  * Output grain: `(strategy_id, metric_id, date, bucket_id, bucket_sum,
  * exposed_cnt)` — `bucket_sum` is the sum of metric values over exposed units
  * in the bucket; `exposed_cnt` counts exposed units (with or without a metric
  * row), the denominator of per-user mean metrics.
  */
object Scorecard {

  /** The common case where segmentation and bucketing coincide (§4.2's demo):
    * the segment id *is* the bucket id, so each (strategy, metric, date,
    * segment) yields exactly one bucket row.
    */
  def bucketValuesSimple(exposeBsi: DataFrame, metricBsi: DataFrame, dates: Seq[Int]): DataFrame =
    scored(exposeBsi, metricBsi.where(col("date").isin(dates: _*)), dates, allExposed = false, nBuckets = None)

  /** The general case (§4.2, segment ≠ bucket): each segment's cells are split
    * by its bucket BSI, then merged across segments. A bucket id outside
    * `1..nBuckets` throws `IllegalArgumentException` naming it.
    */
  def bucketValuesBucketed(exposeBsi: DataFrame, metricBsi: DataFrame, dates: Seq[Int], nBuckets: Int): DataFrame =
    scored(exposeBsi, metricBsi.where(col("date").isin(dates: _*)), dates, allExposed = false, Some(nBuckets))
      .groupBy("strategy_id", "metric_id", "date", "bucket_id")
      .agg(sum(col("bucket_sum")).as("bucket_sum"), sum(col("exposed_cnt")).as("exposed_cnt"))

  /** [[SegmentScorer]] cells of each segment over every metric id of
    * `valueBsi`, read first by one narrow job: a task holding one segment cannot
    * see them. The outer join keeps the exposed units of a segment with no value row.
    * A `cohort` (dimension BSI rows, and a segment's units from its dimension BSIs by name) joins by
    * segment too: each offset BSI keeps only those units, and a segment whose cohort is `None` yields no cells.
    */
  private[core] def scored(exposeBsi: DataFrame, valueBsi: DataFrame, dates: Seq[Int], allExposed: Boolean,
                           nBuckets: Option[Int],
                           cohort: Option[(DataFrame, Map[String, BSI] => Option[RoaringBitmap])] = None)
      : DataFrame = {
    val metricIds = valueBsi.select(col("metric_id").cast("int")).collect().map(_.getInt(0)).distinct.sorted.toSeq
    def bySegment(df: DataFrame, name: String, cols: String*) =
      df.groupBy("segment_id").agg(collect_list(struct(cols.map(col): _*)).as(name))
    val de = BSICodec.deserialize _
    val inCohort = cohort.map(_._2)
    val score = udf { (segment: Int, es: Seq[Row], vs: Seq[Row], ds: Seq[Row]) =>
      val values = Option(vs).getOrElse(Nil).map(r => (r.getInt(0), r.getInt(1)) -> de(r.getAs[Array[Byte]](2))).toMap
      val units = inCohort.map(_(ds.map(r => r.getString(0) -> de(r.getAs[Array[Byte]](1))).toMap))
      val exposes = if (units.contains(None)) Nil else es.map { r =>
        val offset = de(r.getAs[Array[Byte]](2))
        SegmentScorer.Expose(r.getLong(0), r.getInt(1), units.flatten.fold(offset)(offset.andBinary),
                             nBuckets.map(_ => de(r.getAs[Array[Byte]](3))))
      }
      SegmentScorer.score(segment, exposes, (m, d) => values.get((m, d)), metricIds, dates, allExposed).map { c =>
        // ids start at 1 by construction: bucket 0 would be absent from the BSI
        nBuckets.foreach(n => require(c.bucketId <= n, s"bucket id ${c.bucketId} outside 1..$n")); c }
    }
    val segments = bySegment(exposeBsi, "e", "strategy_id", "min_expose_date", "offset_bsi", "bucket_bsi")
      .join(bySegment(valueBsi, "v", "metric_id", "date", "value_bsi"), Seq("segment_id"), "left_outer")
    cohort.fold(segments.withColumn("d", lit(null)))(c =>
        segments.join(bySegment(c._1, "d", "dim_name", "value_bsi"), "segment_id"))
      .select(explode(score(col("segment_id"), col("e"), col("v"), col("d"))).as("c")).select("c.*")
      .toDF("strategy_id", "metric_id", "date", "bucket_id", "bucket_sum", "exposed_cnt")
  }

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
