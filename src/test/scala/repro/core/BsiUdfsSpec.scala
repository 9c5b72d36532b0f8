package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.bsi.{BSI, BSICodec, RefModel}

/** The registered UDFs/UDAFs exercised through real DataFrame plans. */
class BsiUdfsSpec extends SparkSpec {
  import RefModel._

  private lazy val _reg = { BsiUdfs.register(spark); () }

  private def bsiOf(df: org.apache.spark.sql.DataFrame, col: String): BSI =
    BSICodec.deserialize(df.select(col).collect().head.getAs[Array[Byte]](0))

  test("bsi_build aggregates (pos, value) rows into one BSI per group") {
    _reg
    import spark.implicits._
    val df = Seq((1, 0L, 5L), (1, 1L, 9L), (1, 2L, 3L), (2, 0L, 7L))
      .toDF("g", "pos", "value")
      .repartition(4) // force partial aggregation + merge
      .groupBy("g").agg(expr("bsi_build(pos, value)").as("b"))
    val g1 = bsiOf(df.where($"g" === 1), "b")
    val g2 = bsiOf(df.where($"g" === 2), "b")
    assert(bsiToRef(g1) == Map(0 -> 5L, 1 -> 9L, 2 -> 3L))
    assert(bsiToRef(g2) == Map(0 -> 7L))
  }

  test("bsi_build sums duplicate positions (additive build)") {
    _reg
    import spark.implicits._
    val df = Seq((1, 0L, 5L), (1, 0L, 2L), (1, 1L, 1L))
      .toDF("g", "pos", "value")
      .repartition(3)
      .groupBy("g").agg(expr("bsi_build(pos, value)").as("b"))
    assert(bsiToRef(bsiOf(df, "b")) == Map(0 -> 7L, 1 -> 1L))
  }

  test("bsi_sum_agg folds day BSIs with sumBSI across many partitions") {
    _reg
    import spark.implicits._
    val refs = (0 until 6).map(d => random(d + 900, 200, 1000, 100L))
    val df = refs.zipWithIndex
      .map { case (r, d) => (d, BSICodec.serialize(toBsi(r))) }
      .toDF("d", "b")
      .repartition(5)
      .agg(expr("bsi_sum_agg(b)").as("s"))
    assert(bsiToRef(bsiOf(df, "s")) == refs.reduce(add))
  }

  test("bsi_max_agg and bsi_distinct_pos_agg fold correctly") {
    _reg
    import spark.implicits._
    val refs = (0 until 4).map(d => random(d + 300, 150, 800, 50L))
    val df = refs.map(r => Tuple1(BSICodec.serialize(toBsi(r)))).toDF("b").repartition(3)
    val mx = bsiOf(df.agg(expr("bsi_max_agg(b)").as("m")), "m")
    assert(bsiToRef(mx) == refs.reduce(maxOf))
    val dp = bsiOf(df.agg(expr("bsi_distinct_pos_agg(b)").as("m")), "m")
    assert(bsiToRef(dp) == refs.map(_.keySet).reduce(_ ++ _).map(_ -> 1L).toMap)
  }

  test("bsi_mul_agg conjoins binary filters") {
    _reg
    import spark.implicits._
    val f1 = Set(1, 2, 3, 4)
    val f2 = Set(2, 4, 9)
    val df = Seq(f1, f2)
      .map(s => Tuple1(BSICodec.serialize(toBsi(s.map(_ -> 1L).toMap))))
      .toDF("b")
      .agg(expr("bsi_mul_agg(b)").as("m"))
    assert(bsiToRef(bsiOf(df, "m")) == Map(2 -> 1L, 4 -> 1L))
  }

  test("row-wise UDFs: add, mul, sub, cmp, cmp_const") {
    _reg
    import spark.implicits._
    val rx = random(41, 200, 1000, 1L << 12)
    val ry = random(42, 200, 1000, 1L << 12)
    val df = Seq((BSICodec.serialize(toBsi(rx)), BSICodec.serialize(toBsi(ry)))).toDF("x", "y")
      .select(
        expr("bsi_add(x, y)").as("add"),
        expr("bsi_mul(x, y)").as("mul"),
        expr("bsi_sub(x, y)").as("sub"),
        expr("bsi_cmp(x, '<', y)").as("lt"),
        expr("bsi_cmp_const(x, '>=', 100)").as("ge100"))
    val row = df.collect().head
    def at(i: Int) = BSICodec.deserialize(row.getAs[Array[Byte]](i))
    assert(bsiToRef(at(0)) == add(rx, ry))
    assert(bsiToRef(at(1)) == multiply(rx, ry))
    assert(bsiToRef(at(2)) == subtract(rx, ry))
    assert(bitmapToSet(at(3).existence) == compare(rx, ry, _ < _))
    assert(bitmapToSet(at(4).existence) == compareConst(rx, 100L, _ >= _))
  }

  test("scalar UDFs: sum, count, avg, min, max, median, ntile, get") {
    _reg
    import spark.implicits._
    val r = random(51, 300, 2000, 1L << 10)
    val sorted = r.values.toSeq.sorted
    val row = Seq(Tuple1(BSICodec.serialize(toBsi(r)))).toDF("b")
      .select(
        expr("bsi_sum(b)"), expr("bsi_count(b)"), expr("bsi_avg(b)"),
        expr("bsi_min_value(b)"), expr("bsi_max_value(b)"), expr("bsi_median(b)"),
        expr("bsi_ntile(b, 0.9)"), expr(s"bsi_get(b, ${r.keySet.head})"))
      .collect().head
    assert(row.getLong(0) == r.values.sum)
    assert(row.getLong(1) == r.size)
    assert(math.abs(row.getDouble(2) - r.values.sum.toDouble / r.size) < 1e-9)
    assert(row.getLong(3) == sorted.head)
    assert(row.getLong(4) == sorted.last)
    assert(row.getLong(5) == sorted((sorted.size + 1) / 2 - 1))
    assert(row.getLong(6) == sorted(math.ceil(0.9 * sorted.size).toInt - 1))
    assert(row.getLong(7) == r(r.keySet.head))
  }

  test("bsi_build rejects positions outside [0, Int.MaxValue]") {
    val agg = new BsiUdfs.BuildAgg
    for (pos <- Seq((1L << 32) + 5, Int.MaxValue + 1L, -1L)) {
      val e = intercept[IllegalArgumentException](agg.reduce(agg.zero, (pos, 3L)))
      assert(e.getMessage.contains(s"position $pos"), e.getMessage)
    }
    assert(bsiToRef(agg.reduce(agg.zero, (Int.MaxValue.toLong, 3L)).result()) == Map(Int.MaxValue -> 3L))
  }

  test("UDFs treat null binary as the empty BSI") {
    _reg
    import spark.implicits._
    val r = random(61, 50, 200, 20L)
    val df = Seq(Tuple1(BSICodec.serialize(toBsi(r)))).toDF("x")
      .select(expr("bsi_add(x, cast(null as binary))").as("a"),
              expr("bsi_sum(cast(null as binary))").as("s"))
    val row = df.collect().head
    assert(bsiToRef(BSICodec.deserialize(row.getAs[Array[Byte]](0))) == r)
    assert(row.getLong(1) == 0L)
  }
}
