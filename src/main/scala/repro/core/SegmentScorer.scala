package repro.core

import repro.bsi.BSI

/** One segment's scorecard cells in one pass (§4.2), for `Scorecard`,
  * `PreExperiment` and `AdhocEngine.queryBsi`. Each (strategy, date) mask is
  * built and counted once and scores every metric; a metric with no value BSI
  * reads as empty, a sum of 0 over the full exposed count.
  */
object SegmentScorer {

  /** One strategy's expose BSIs in the segment; a `bucket` BSI splits its cells by bucket id. */
  final case class Expose(strategyId: Long, minExposeDate: Int, offset: BSI, bucket: Option[BSI])

  /** Σ value over one bucket's exposed units, and their count; an unbucketed cell's bucket is the segment. */
  final case class Cell(strategyId: Long, metricId: Int, date: Int, bucketId: Int, sum: Long, exposedCnt: Long)

  /** Cells for every expose × date × metric. The mask keeps the units exposed
    * by the date (`offset ≤ date − min_expose_date + 1` ⇔ `expose-date ≤
    * date`), or all of them when `allExposed` (CUPED's pre-period).
    */
  def score(segment: Int, exposes: Seq[Expose], values: (Int, Int) => Option[BSI], metricIds: Seq[Int],
            dates: Seq[Int], allExposed: Boolean): Seq[Cell] =
    for {
      e <- exposes
      d <- dates
      mask = if (allExposed) e.offset.existence else e.offset.leConst(d - e.minExposeDate + 1L)
      cnt = mask.getLongCardinality
      m <- metricIds
      v = values(m, d).getOrElse(BSI.empty)
      (bucket, sum, n) <- e.bucket.fold(Seq((segment.toLong, v.filteredSum(mask), cnt)))(v.bucketExposedSums(mask, _))
    } yield Cell(e.strategyId, m, d, bucket.toInt, sum, n)
}
