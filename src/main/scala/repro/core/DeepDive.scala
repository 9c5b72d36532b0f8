package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.roaringbitmap.RoaringBitmap

import repro.bsi.BSI

/** Deep-dive analysis (§4.4): the §4.2 scorecard over the units that satisfy
  * predicates on dimension logs, to surface heterogeneous effects. Each
  * predicate turns a dimension BSI into a binary filter (`value = k`,
  * `value > k`, …); for binary filters `mulBSI` is a bitmap `and`, so the
  * cohort is the conjunction of the filters, and the paper's
  * `expose-date * dim-filter` is one more `and` on each offset BSI inside the
  * scorecard plan. A predicate's op is a Scala value checked against the one
  * op table, [[BsiUdfs.cmpConst]]; no SQL text is involved, and an op outside
  * the six throws `IllegalArgumentException`.
  */
object DeepDive {

  /** One predicate on a dimension (op ∈ <, <=, >, >=, =, !=). */
  final case class DimPredicate(dimName: String, op: String, k: Long)

  /** One segment's units satisfying every predicate, from its dimension BSIs
    * by name; `None` when a predicate's dimension has no BSI in the segment.
    */
  def cohort(dims: Map[String, BSI], preds: Seq[DimPredicate]): Option[RoaringBitmap] =
    Option.when(preds.forall(p => dims.contains(p.dimName)))(
      preds.map(p => BsiUdfs.cmpConst(dims(p.dimName), p.op, p.k)).reduce(RoaringBitmap.and(_, _)))

  /** Deep-dive scorecard of `strategyIds` on `dates`, over the cohort the
    * predicates select on the dimension logs of `filterDate`. A segment
    * missing one of the predicates' dimensions yields no cells.
    */
  def scorecard(exposeBsi: DataFrame, metricBsi: DataFrame, dimBsi: DataFrame,
                preds: Seq[DimPredicate], strategyIds: Seq[Long], dates: Seq[Int],
                filterDate: Int): DataFrame = {
    require(preds.nonEmpty, "deep dive needs at least one dimension predicate")
    Scorecard.scored(exposeBsi.where(col("strategy_id").isin(strategyIds.map(java.lang.Long.valueOf): _*)),
      metricBsi.where(col("date").isin(dates: _*)), dates, allExposed = false, nBuckets = None,
      Some(dimBsi.where(col("date") === filterDate && col("dim_name").isin(preds.map(_.dimName): _*)) ->
        (cohort(_, preds))))
  }
}
