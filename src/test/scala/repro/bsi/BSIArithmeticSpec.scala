package repro.bsi

import org.scalatest.funsuite.AnyFunSuite

/** Addition, subtraction, multiplication against the reference model —
  * loop-generated across seeds, sizes and value ranges so carry/borrow chains
  * of every depth get exercised.
  */
class BSIArithmeticSpec extends AnyFunSuite {
  import RefModel._

  private val shapes = Seq( // (universe, n, maxValue)
    (64, 20, 1L), (64, 40, 7L), (1000, 300, 100L), (1000, 300, 1L << 20),
    (100000, 2000, 3L), (100000, 2000, 1L << 33))

  test("figure 2 example: X + Y matches the paper's S column") {
    val x = BSI.fromPairs(Seq(1 -> 1L, 2 -> 2L, 3 -> 3L, 4 -> 1L, 5 -> 3L, 6 -> 2L))
    val y = BSI.fromPairs(Seq(0 -> 2L, 1 -> 1L, 2 -> 1L, 3 -> 2L, 4 -> 3L, 6 -> 2L, 7 -> 1L))
    val s = x.add(y)
    val expected = Seq(0 -> 2L, 1 -> 2L, 2 -> 3L, 3 -> 5L, 4 -> 4L, 5 -> 3L, 6 -> 4L, 7 -> 1L)
    expected.foreach { case (p, v) => assert(s.get(p) == v, s"pos $p") }
  }

  for (((u, n, mx), i) <- shapes.zipWithIndex) {
    test(s"add matches reference (shape $i: universe=$u n=$n max=$mx)") {
      for (seed <- 0 until 3) {
        val (rx, ry) = (random(seed * 2 + i * 100, n, u, mx), random(seed * 2 + 1 + i * 100, n, u, mx))
        assert(bsiToRef(toBsi(rx).add(toBsi(ry))) == add(rx, ry), s"seed=$seed")
      }
    }

    test(s"subtract matches reference with underflow clamped (shape $i)") {
      for (seed <- 0 until 3) {
        val (rx, ry) = (random(seed * 3 + i * 200, n, u, mx), random(seed * 3 + 1 + i * 200, n, u, mx))
        assert(bsiToRef(toBsi(rx).subtract(toBsi(ry))) == subtract(rx, ry), s"seed=$seed")
      }
    }

    test(s"multiply matches reference (shape $i)") {
      val mxm = math.min(mx, 1L << 20) // keep products within Long
      for (seed <- 0 until 3) {
        val (rx, ry) = (random(seed * 5 + i * 300, n, u, mxm), random(seed * 5 + 1 + i * 300, n, u, mxm))
        assert(bsiToRef(toBsi(rx).multiply(toBsi(ry))) == multiply(rx, ry), s"seed=$seed")
      }
    }
  }

  test("add with empty is identity both ways") {
    val r = random(11, 100, 1000, 500)
    val b = toBsi(r)
    assert(bsiToRef(b.add(BSI.empty)) == r)
    assert(bsiToRef(BSI.empty.add(b)) == r)
  }

  test("add is commutative and associative on random inputs") {
    val a = toBsi(random(21, 200, 5000, 1000))
    val b = toBsi(random(22, 200, 5000, 1000))
    val c = toBsi(random(23, 200, 5000, 1000))
    assert(a.add(b) == b.add(a))
    assert(a.add(b).add(c) == a.add(b.add(c)))
  }

  test("carry chains across many slices: 0xFF.. + 1") {
    val b = BSI.fromPairs(Seq(0 -> 255L)).add(BSI.fromPairs(Seq(0 -> 1L)))
    assert(b.get(0) == 256L)
    assert(b.numSlices == 9)
  }

  test("add past 63 bits throws instead of wrapping") {
    val max = BSI.fromPairs(Seq(0 -> Long.MaxValue))
    intercept[ArithmeticException](max.add(max))
  }

  test("multiply past 63 bits throws instead of wrapping: 2^40 · 2^40") {
    val b = BSI.fromPairs(Seq(0 -> (1L << 40)))
    intercept[ArithmeticException](b.multiply(b))
    intercept[ArithmeticException](b.shiftSlices(23))
    assert(b.shiftSlices(22).get(0) == 1L << 62)
  }

  test("subtract exact inverse when no underflow: (x + y) - y = x") {
    val rx = random(31, 300, 2000, 1 << 16)
    val ry = random(32, 300, 2000, 1 << 16)
    val x  = toBsi(rx); val y = toBsi(ry)
    // (x+y) - y leaves x's positions; y-only positions go to 0 (absent)
    assert(bsiToRef(x.add(y).subtract(y)) == rx)
  }

  test("subtract clamps underflow to absent") {
    val d = BSI.fromPairs(Seq(1 -> 2L)).subtract(BSI.fromPairs(Seq(1 -> 5L, 2 -> 9L)))
    assert(d.isEmpty)
  }

  test("multiply by binary BSI keeps masked values (linear-cost path)") {
    val r = random(41, 500, 3000, 1 << 24)
    val maskSet = r.keySet.filter(_ % 3 == 0)
    val mask = BSI.fromPairs(maskSet.map(_ -> 1L))
    val got = toBsi(r).multiply(mask)
    assert(bsiToRef(got) == r.view.filterKeys(maskSet).toMap)
    // andBinary agrees with multiply-by-binary
    assert(toBsi(r).andBinary(mask.existence) == got)
  }

  test("multiply with empty is empty") {
    val b = toBsi(random(51, 50, 100, 10))
    assert(b.multiply(BSI.empty).isEmpty)
    assert(BSI.empty.multiply(b).isEmpty)
  }

  test("inputs are not mutated by operations") {
    val rx = random(61, 100, 1000, 1000)
    val ry = random(62, 100, 1000, 1000)
    val x = toBsi(rx); val y = toBsi(ry)
    x.add(y); x.subtract(y); x.multiply(y); x.lt(y); x.gtConst(5)
    assert(bsiToRef(x) == rx)
    assert(bsiToRef(y) == ry)
  }
}
