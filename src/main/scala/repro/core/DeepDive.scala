package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Deep-dive analysis (§4.4): filter the expose log by predicates on dimension
  * logs before scoring, to surface heterogeneous effects. Each predicate turns
  * a dimension BSI into a binary filter BSI (`value = k`, `value > k`, …);
  * filters are conjoined with `mulBSI` and multiplied into the offset BSIs.
  * The UDFs are called by name with literal arguments, so a predicate is data,
  * never SQL text: an unknown op throws `IllegalArgumentException`.
  */
object DeepDive {

  /** One predicate on a dimension (op ∈ <, <=, >, >=, =, !=). */
  final case class DimPredicate(dimName: String, op: String, k: Long)

  /** Per-segment conjunction of the predicates' binary filters at `date`:
    * `(segment_id, dim_filter BSI)`. Mirrors the paper's
    * `mulBSI(filter) ... GROUP BY segment-id` over a UNION ALL of per-dimension
    * filters.
    */
  def dimFilter(dimBsi: DataFrame, preds: Seq[DimPredicate], date: Int): DataFrame = {
    require(preds.nonEmpty, "deep dive needs at least one dimension predicate")
    val perDim = preds.map { p =>
      dimBsi
        .where(col("dim_name") === p.dimName && col("date") === date)
        .select(col("segment_id"),
          call_udf("bsi_cmp_const", col("value_bsi"), lit(p.op), lit(p.k)).as("filter"))
    }.reduce(_ unionByName _)
    // a segment must satisfy *every* predicate's filter — segments missing a
    // dimension row drop out via the count check
    perDim
      .groupBy("segment_id")
      .agg(call_udf("bsi_mul_agg", col("filter")).as("dim_filter"), count(lit(1)).as("n_dims"))
      .where(col("n_dims") === preds.size)
      .drop("n_dims")
  }

  /** Restrict the expose BSIs of the selected strategies to units passing the
    * dimension filter: the `offset` BSI is multiplied by the binary filter (the
    * paper's `expose-date * dim-filter`). Every scorecard cell builds its mask
    * from the offset, so the bucket BSI is left whole.
    */
  def filteredExpose(exposeBsi: DataFrame, dimFilterDf: DataFrame,
                     strategyIds: Seq[Long]): DataFrame =
    exposeBsi
      .where(col("strategy_id").isin(strategyIds.map(java.lang.Long.valueOf): _*))
      .join(dimFilterDf, "segment_id")
      .withColumn("offset_bsi", call_udf("bsi_mul", col("offset_bsi"), col("dim_filter")))
      .drop("dim_filter")

  /** Full deep-dive scorecard: filter expose by dimensions, then score. */
  def scorecard(exposeBsi: DataFrame, metricBsi: DataFrame, dimBsi: DataFrame,
                preds: Seq[DimPredicate], strategyIds: Seq[Long], dates: Seq[Int],
                filterDate: Int): DataFrame = {
    val fx = filteredExpose(exposeBsi, dimFilter(dimBsi, preds, filterDate), strategyIds)
    Scorecard.bucketValuesSimple(fx, metricBsi, dates)
  }
}
