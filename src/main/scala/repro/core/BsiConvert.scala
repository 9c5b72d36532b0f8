package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Conversion of normal-format experiment logs into the paper's BSI
  * representations (Table 2), using the position-encoding dictionary
  * (`segment_id, unit_id, pos`) and the `bsi_build` UDAF.
  *
  * Requires [[BsiUdfs.register]] to have been called on the session.
  */
object BsiConvert {

  /** Metric log → `(segment_id, date, metric_id, value BSI)` — one BSI per
    * (segment, date, metric), value keyed by encoded position.
    */
  def metricLogToBsi(metricLog: DataFrame, dictionary: DataFrame): DataFrame =
    toBsi(metricLog, dictionary, Seq("date", "metric_id"), "value_bsi" -> col("value"))

  /** Dimension log → `(segment_id, date, dim_name, value BSI)`. */
  def dimensionLogToBsi(dimLog: DataFrame, dictionary: DataFrame): DataFrame =
    toBsi(dimLog, dictionary, Seq("date", "dim_name"), "value_bsi" -> col("value"))

  /** Expose log → `(segment_id, strategy_id, min_expose_date, offset BSI,
    * bucket BSI)` (§3.4.2): `first_expose_date` becomes a per-strategy constant
    * `min_expose_date` plus a 1-based `offset` BSI (offsets start at 1 because
    * zeros vanish in a BSI), and the randomization-unit id is replaced by the
    * 1-based bucket id. The one-row-per-strategy minimum joins by broadcast, so
    * the log is never shuffled by strategy.
    */
  def exposeLogToBsi(exposeLog: DataFrame, dictionary: DataFrame): DataFrame = {
    val minDates = exposeLog.groupBy("strategy_id").agg(min(col("first_expose_date")).as("min_expose_date"))
    toBsi(exposeLog.join(broadcast(minDates), "strategy_id"), dictionary, Seq("strategy_id", "min_expose_date"),
      "offset_bsi" -> (col("first_expose_date") - col("min_expose_date") + 1), "bucket_bsi" -> col("bucket_id"))
  }

  /** §3.4.1 position encoding, then one `bsi_build` per named BSI: `(segment_id,
    * keys…, bsis…)`. Inner join: a unit absent from the dictionary has no
    * encoded position (it never appears in any log by construction). Rows are
    * stored by segment: hash-partitioned by `segment_id` into the session's
    * `spark.sql.shuffle.partitions`, a count AQE does not coalesce, so the
    * scorers' tables meet partition to partition with no exchange.
    */
  private def toBsi(log: DataFrame, dictionary: DataFrame, keys: Seq[String], bsis: (String, Column)*): DataFrame = {
    val built = bsis.map { case (name, value) =>
      call_udf("bsi_build", col("pos").cast("long"), value.cast("long")).as(name) }
    val n = log.sparkSession.conf.get("spark.sql.shuffle.partitions").toInt
    log.join(dictionary, "unit_id").repartition(n, col("segment_id"))
      .groupBy(("segment_id" +: keys).map(col): _*).agg(built.head, built.tail: _*)
  }
}
