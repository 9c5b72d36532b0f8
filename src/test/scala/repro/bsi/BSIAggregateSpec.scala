package repro.bsi

import org.scalatest.funsuite.AnyFunSuite

/** In-BSI aggregates (count/sum/avg/min/max/median/n-tile) and the §4.1.3
  * aggregates over BSIs (sumBSI/maxBSI/mulBSI/distinctPos).
  */
class BSIAggregateSpec extends AnyFunSuite {
  import RefModel._

  private val shapes = Seq((100, 40, 9L), (5000, 700, 255L), (100000, 3000, 1L << 24))

  for (((u, n, mx), i) <- shapes.zipWithIndex) {
    test(s"count/sum/avg/min/max match reference (shape $i)") {
      for (seed <- 0 until 3) {
        val r = random(seed + i * 50, n, u, mx)
        val b = toBsi(r)
        assert(b.count == r.size)
        assert(b.sumValues == r.values.sum)
        assert(b.avgValue == r.values.sum.toDouble / r.size)
        assert(b.minValue == r.values.min)
        assert(b.maxValue == r.values.max)
      }
    }

    test(s"kthSmallest / median / ntile match sorting (shape $i)") {
      val r = random(i * 60 + 9, n, u, mx)
      val b = toBsi(r)
      val sorted = r.values.toSeq.sorted
      Seq(1, sorted.size / 3 + 1, sorted.size / 2 + 1, sorted.size).foreach { k =>
        assert(b.kthSmallest(k.toLong) == sorted(k - 1), s"k=$k")
      }
      assert(b.median == sorted((sorted.size + 1) / 2 - 1))
      Seq(0.1, 0.25, 0.5, 0.9, 1.0).foreach { q =>
        val k = math.max(1, math.ceil(q * sorted.size).toInt)
        assert(b.ntile(q) == sorted(k - 1), s"q=$q")
      }
    }
  }

  test("aggregates on empty BSI") {
    assert(BSI.empty.count == 0)
    assert(BSI.empty.sumValues == 0)
    assert(BSI.empty.minValue == 0 && BSI.empty.maxValue == 0)
    assert(BSI.empty.median == 0)
    assert(BSI.empty.avgValue.isNaN)
    intercept[IllegalArgumentException](BSI.empty.kthSmallest(1))
  }

  test("sums past Long.MaxValue throw instead of wrapping") {
    val b = BSI.fromPairs((0 until 8).map(_ -> (1L << 61))) // 8 × 2^61 = 2^64
    intercept[ArithmeticException](b.sumValues)
    intercept[ArithmeticException](b.filteredSum(b.existence))
    intercept[ArithmeticException](BSI.fromPairs(Seq(0 -> Long.MaxValue, 0 -> 1L)))
  }

  // a legal 59-slice BSI whose sum, 32 × 2^58 = 2^63, is one past Long.MaxValue
  private val pastLong = BSI.fromPairs((0 until 32).map(_ -> (1L << 58)))

  test("avgValue of a sum past Long.MaxValue is the exact mean") {
    assert(pastLong.avgValue == (1L << 58).toDouble)
    val fits = BSI.fromPairs(Seq(1 -> (Long.MaxValue - 9), 2 -> 6L, 7 -> 3L)) // sums to Long.MaxValue
    assert(fits.avgValue == fits.sumValues.toDouble / 3)
  }

  test("toString prints a sum past Long.MaxValue exactly") {
    assert(pastLong.toString == "BSI(slices=59, count=32, sum=9223372036854775808)")
    assert(BSI.fromPairs(Seq(1 -> 5L, 4 -> 7L)).toString == "BSI(slices=3, count=2, sum=12)")
    assert(BSI.empty.toString == "BSI(slices=0, count=0, sum=0)")
  }

  test("duplicate values: kthSmallest handles ties") {
    val b = BSI.fromPairs(Seq(1 -> 5L, 2 -> 5L, 3 -> 5L, 4 -> 1L, 5 -> 9L))
    assert(b.kthSmallest(1) == 1L)
    assert(b.kthSmallest(2) == 5L)
    assert(b.kthSmallest(4) == 5L)
    assert(b.kthSmallest(5) == 9L)
    assert(b.median == 5L)
  }

  for (seed <- 0 until 4) {
    test(s"sumBSI/maxBSI/mulBSI/distinctPos match reference (seed $seed)") {
      val rx = random(seed * 13, 400, 3000, 1L << 18)
      val ry = random(seed * 13 + 1, 400, 3000, 1L << 18)
      val (x, y) = (toBsi(rx), toBsi(ry))
      assert(bsiToRef(BSIAggregates.sumBSI(x, y)) == add(rx, ry))
      assert(bsiToRef(BSIAggregates.maxBSI(x, y)) == maxOf(rx, ry))
      assert(bsiToRef(BSIAggregates.mulBSI(x, y)) == multiply(rx, ry))
      assert(bsiToRef(BSIAggregates.distinctPos(x, y)) ==
        (rx.keySet ++ ry.keySet).map(_ -> 1L).toMap)
    }
  }

  test("maxBSI keeps one-sided positions (max with absent = value)") {
    val x = BSI.fromPairs(Seq(1 -> 4L, 2 -> 10L))
    val y = BSI.fromPairs(Seq(1 -> 6L, 3 -> 2L))
    val m = BSIAggregates.maxBSI(x, y)
    assert(bsiToRef(m) == Map(1 -> 6L, 2 -> 10L, 3 -> 2L))
  }

  test("distinctPos drives unique-visitor counting across days (§4.2)") {
    val day1 = toBsi(Map(1 -> 3L, 2 -> 1L))
    val day2 = toBsi(Map(2 -> 7L, 3 -> 2L))
    val uv = BSIAggregates.distinctPos(day1, day2)
    assert(uv.count == 3) // unique analysis units with any value
    assert(uv.sumValues == 3) // binary BSI: sum == count
  }
}
