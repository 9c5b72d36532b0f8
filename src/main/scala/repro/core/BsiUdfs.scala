package repro.core

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions.udaf

import repro.bsi.{BSI, BSIAggregates, BSIBuilder, BSICodec}

/** Spark integration of BSI as custom encoded columns: BSIs travel through
  * DataFrames as `BinaryType` values (see [[repro.bsi.BSICodec]]), and this
  * object registers the UDFs / typed-`Aggregator` UDAFs that implement the
  * paper's join/filter/aggregate operations (§4.1) on those columns.
  *
  * Registered names (all BSI arguments are the codec's byte arrays):
  *
  *   - `bsi_build(pos, value)`           UDAF: rows → BSI, repeated positions summed
  *                                       (position encoding assumed done)
  *   - `bsi_sum_agg(b)`                  UDAF: sumBSI over a group
  *   - `bsi_mul_agg(b)`                  UDAF: mulBSI over a group (dimension-filter conjunction)
  *   - `bsi_max_agg(b)`                  UDAF: maxBSI over a group
  *   - `bsi_distinct_pos_agg(b)`         UDAF: distinctPos over a group
  *   - `bsi_add(a, b)`, `bsi_mul(a, b)`, `bsi_sub(a, b)`
  *                                       row-wise arithmetic (§2.3); a result past 63 bits throws
  *   - `bsi_cmp(a, op, b)`               row-wise comparison → binary BSI (Algorithms 1–3)
  *   - `bsi_cmp_const(a, op, k)`         comparison against a constant → binary BSI
  *   - `bsi_sum/bsi_count/bsi_avg/bsi_min_value/bsi_max_value/bsi_median/bsi_ntile`
  *                                       in-BSI aggregates → scalar (§4.1.3)
  *   - `bsi_get(a, pos)`                 point lookup (tests/debug)
  */
object BsiUdfs {

  /** Mutable accumulator for the combine UDAFs; `seen` distinguishes "no input
    * yet" from a genuinely empty BSI so `mulBSI` has a working identity.
    */
  final class Acc(var bsi: BSI, var seen: Boolean) extends Serializable

  /** Typed aggregator turning `(pos, value)` rows into one serialized BSI. */
  final class BuildAgg extends Aggregator[(Long, Long), BSIBuilder, Array[Byte]] {
    def zero: BSIBuilder = new BSIBuilder
    def reduce(b: BSIBuilder, in: (Long, Long)): BSIBuilder = {
      if (in._1 < 0 || in._1 > Int.MaxValue)
        throw new IllegalArgumentException(s"position ${in._1} outside [0, ${Int.MaxValue}]")
      b.put(in._1.toInt, in._2)
    }
    def merge(a: BSIBuilder, b: BSIBuilder): BSIBuilder = a.merge(b)
    def finish(b: BSIBuilder): Array[Byte] = BSICodec.serialize(b.result())
    def bufferEncoder: Encoder[BSIBuilder] = Encoders.javaSerialization[BSIBuilder]
    def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY
  }

  /** Typed aggregator folding serialized BSIs with one of the §4.1.3 combines. */
  final class CombineAgg(op: (BSI, BSI) => BSI) extends Aggregator[Array[Byte], Acc, Array[Byte]] {
    def zero: Acc = new Acc(BSI.empty, seen = false)
    def reduce(a: Acc, in: Array[Byte]): Acc = {
      val b = BSICodec.deserialize(in)
      if (!a.seen) { a.bsi = b; a.seen = true } else a.bsi = op(a.bsi, b)
      a
    }
    def merge(a: Acc, b: Acc): Acc =
      if (!b.seen) a
      else if (!a.seen) b
      else { a.bsi = op(a.bsi, b.bsi); a }
    def finish(a: Acc): Array[Byte] = BSICodec.serialize(a.bsi)
    def bufferEncoder: Encoder[Acc] = Encoders.javaSerialization[Acc]
    def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY
  }

  private def cmpConst(a: BSI, op: String, k: Long) = op match {
    case "<"  => a.ltConst(k)
    case "<=" => a.leConst(k)
    case ">"  => a.gtConst(k)
    case ">=" => a.geConst(k)
    case "="  => a.eqConst(k)
    case "!=" => a.neqConst(k)
    case o    => throw new IllegalArgumentException(s"unknown comparison op: $o")
  }

  private def cmpBsi(a: BSI, op: String, b: BSI) = op match {
    case "<"  => a.lt(b)
    case "<=" => a.le(b)
    case ">"  => a.gt(b)
    case ">=" => a.ge(b)
    case "="  => a.eqTo(b)
    case "!=" => a.neq(b)
    case o    => throw new IllegalArgumentException(s"unknown comparison op: $o")
  }

  /** Register every BSI UDF/UDAF on `spark` (idempotent — re-registration
    * overwrites with identical definitions).
    */
  def register(spark: SparkSession): Unit = {
    spark.udf.register("bsi_build", udaf(new BuildAgg))
    spark.udf.register("bsi_sum_agg", udaf(new CombineAgg(BSIAggregates.sumBSI)))
    spark.udf.register("bsi_mul_agg", udaf(new CombineAgg(BSIAggregates.mulBSI)))
    spark.udf.register("bsi_max_agg", udaf(new CombineAgg(BSIAggregates.maxBSI)))
    spark.udf.register("bsi_distinct_pos_agg", udaf(new CombineAgg(BSIAggregates.distinctPos)))

    val de = BSICodec.deserialize _
    val se = BSICodec.serialize _

    spark.udf.register("bsi_add", (a: Array[Byte], b: Array[Byte]) => se(de(a).add(de(b))))
    spark.udf.register("bsi_mul", (a: Array[Byte], b: Array[Byte]) => se(de(a).multiply(de(b))))
    spark.udf.register("bsi_sub", (a: Array[Byte], b: Array[Byte]) => se(de(a).subtract(de(b))))
    spark.udf.register("bsi_cmp",
      (a: Array[Byte], op: String, b: Array[Byte]) => se(BSI.fromBitmap(cmpBsi(de(a), op, de(b)))))
    spark.udf.register("bsi_cmp_const",
      (a: Array[Byte], op: String, k: Long) => se(BSI.fromBitmap(cmpConst(de(a), op, k))))

    spark.udf.register("bsi_sum", (a: Array[Byte]) => de(a).sumValues)
    spark.udf.register("bsi_count", (a: Array[Byte]) => de(a).count)
    spark.udf.register("bsi_avg", (a: Array[Byte]) => de(a).avgValue)
    spark.udf.register("bsi_min_value", (a: Array[Byte]) => de(a).minValue)
    spark.udf.register("bsi_max_value", (a: Array[Byte]) => de(a).maxValue)
    spark.udf.register("bsi_median", (a: Array[Byte]) => de(a).median)
    spark.udf.register("bsi_ntile", (a: Array[Byte], q: Double) => de(a).ntile(q))
    spark.udf.register("bsi_get", (a: Array[Byte], pos: Int) => de(a).get(pos))
  }
}
