package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.bsi.{BSI, BSICodec, RefModel}
import repro.core.SegmentScorer.{Cell, Expose}

/** The one scorecard cell of both tiers, checked against the registered UDF
  * chain it fuses and against a hand-made bucket split.
  */
class SegmentScorerSpec extends SparkSpec {
  import RefModel._

  test("scorer cell equals the UDF chain bsi_cmp_const -> bsi_mul -> bsi_sum") {
    BsiUdfs.register(spark)
    import spark.implicits._
    val rows = for (i <- 0 until 6; k <- Seq(-4L, 0L, 1L, 3L, Long.MaxValue)) yield {
      val value = if (i == 0) BSI.empty else toBsi(random(i + 70, 300, 2000, 1L << 12))
      val offset = if (i == 1) BSI.empty else toBsi(random(i + 80, 250, 2000, 7L))
      (value, offset, k)
    }
    val chain = rows.zipWithIndex.map { case ((v, o, k), i) => (i, BSICodec.serialize(v), BSICodec.serialize(o), k) }
      .toDF("i", "v", "off", "k")
      .withColumn("expose", call_udf("bsi_cmp_const", col("off"), lit("<="), col("k")))
      .select(col("i"), call_udf("bsi_sum", call_udf("bsi_mul", col("v"), col("expose"))),
              call_udf("bsi_count", col("expose")))
      .collect().sortBy(_.getInt(0)).map(r => (r.getLong(1), r.getLong(2))).toSeq
    // min_expose_date 10, so day d masks `offset <= d - 9`; every exposed unit stands for k = Long.MaxValue
    val cells = rows.map { case (v, o, k) =>
      val (date, all) = if (k == Long.MaxValue) (0, true) else (k.toInt + 9, false)
      val Seq(c) = SegmentScorer.score(3, Seq(Expose(1L, 10, o, None)), (_, _) => Some(v), Seq(1), Seq(date), all)
      assert(c.bucketId == 3)
      (c.sum, c.exposedCnt)
    }
    assert(cells.exists(_._1 > 0))
    assert(cells == chain)
  }

  test("the scorer splits exposed sums by bucket") {
    // positions 0..9; values = pos+1; buckets alternate 1/2; offsets keep evens on day 1
    val value  = toBsi((0 until 10).map(p => p -> (p + 1L)).toMap)
    val offset = toBsi((0 until 10 by 2).map(_ -> 1L).toMap)
    val bucket = toBsi((0 until 10).map(p => p -> (p % 2 + 1L)).toMap)
    val cells = SegmentScorer.score(0, Seq(Expose(7L, 1, offset, Some(bucket))), (_, _) => Some(value), Seq(4),
                                    Seq(1), allExposed = false)
    // bucket 1 holds even positions: masked values 1+3+5+7+9 = 25, count 5
    assert(cells == Seq(Cell(7L, 4, 1, 1, 25L, 5L)))
  }
}
