package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Failure, Random, Success, Try}

/** Bucket-based variance/covariance, Welch t-tests and CUPED (§3.3, §4.3). */
class StatsSpec extends AnyFunSuite {
  import Stats._

  /** Simulate an arm: `nUsers` i.i.d. unit values, hash-assigned to buckets;
    * returns the bucketed metric plus the raw values for direct estimates.
    */
  private def simulate(nUsers: Int, nBuckets: Int, seed: Long,
                       draw: Random => Double): (BucketedMetric, Array[Double]) = {
    val rnd = new Random(seed)
    val vals = Array.fill(nUsers)(draw(rnd))
    val s = new Array[Double](nBuckets)
    val c = new Array[Double](nBuckets)
    vals.zipWithIndex.foreach { case (v, i) =>
      val b = math.abs((i * 2654435761L + seed).hashCode) % nBuckets
      s(b) += v; c(b) += 1
    }
    (BucketedMetric(s, c), vals)
  }

  test("mean is total sum over total count") {
    val m = BucketedMetric(Array(10.0, 20.0, 30.0), Array(5.0, 5.0, 10.0))
    assert(m.mean == 60.0 / 20.0)
  }

  test("bucket variance approximates Var(x̄) = σ²/n for iid values") {
    val n = 200000
    val (m, vals) = simulate(n, 256, 1L, _.nextDouble() * 10)
    val sampleVar = {
      val mu = vals.sum / n
      vals.map(v => (v - mu) * (v - mu)).sum / (n - 1)
    }
    val expected = sampleVar / n
    val got = variance(m)
    assert(math.abs(got - expected) / expected < 0.15,
      s"bucket var $got vs direct $expected")
  }

  test("variance equals covariance with itself") {
    val (m, _) = simulate(10000, 64, 3L, _.nextDouble())
    assert(variance(m) == covariance(m, m))
  }

  test("covariance of independent metrics is near zero, of identical metrics equals variance") {
    val (x, _) = simulate(100000, 128, 5L, _.nextDouble())
    val (y, _) = simulate(100000, 128, 6L, _.nextDouble())
    assert(math.abs(covariance(x, y)) < 3 * math.sqrt(variance(x) * variance(y)) * 0.3)
    assert(covariance(x, x) == variance(x))
  }

  test("covariance is symmetric") {
    val (x, _) = simulate(5000, 32, 7L, _.nextDouble())
    val (y, _) = simulate(5000, 32, 8L, r => r.nextDouble() * 2)
    assert(math.abs(covariance(x, y) - covariance(y, x)) < 1e-15)
  }

  test("A/A t-test: no effect → p-value is large for most seeds") {
    val ps = (0 until 20).map { s =>
      val (t, _) = simulate(20000, 64, 100 + s, _.nextDouble() * 5)
      val (c, _) = simulate(20000, 64, 200 + s, _.nextDouble() * 5)
      welchTTest(t, c).pValue
    }
    // under H0 about 5% of p-values fall below 0.05; allow up to 4/20
    assert(ps.count(_ < 0.05) <= 4, s"too many false positives: $ps")
    assert(ps.forall(p => p >= 0.0 && p <= 1.0))
  }

  test("A/B t-test: a clear effect is detected") {
    val (t, _) = simulate(50000, 64, 11L, _.nextDouble() + 0.2)
    val (c, _) = simulate(50000, 64, 12L, _.nextDouble())
    val r = welchTTest(t, c)
    assert(r.pValue < 1e-6, s"p=${r.pValue}")
    assert(r.delta > 0.15 && r.delta < 0.25)
    assert(r.meanTreatment > r.meanControl)
  }

  test("t-test fields are consistent") {
    val (t, _) = simulate(10000, 32, 21L, _.nextDouble() + 0.5)
    val (c, _) = simulate(10000, 32, 22L, _.nextDouble())
    val r = welchTTest(t, c)
    assert(math.abs(r.delta - (r.meanTreatment - r.meanControl)) < 1e-12)
    assert(math.abs(r.relativeDelta - r.delta / r.meanControl) < 1e-12)
    assert(r.df > 1 && r.df <= 62)
  }

  test("CUPED reduces variance when the covariate correlates") {
    // y = x + noise: pre-period metric x strongly predicts y
    def sim(seed: Long) = {
      val rnd = new Random(seed)
      val n = 50000; val nB = 64
      val sy = new Array[Double](nB); val sx = new Array[Double](nB); val c = new Array[Double](nB)
      (0 until n).foreach { i =>
        val b = math.abs((i * 2654435761L + seed).hashCode) % nB
        val x = rnd.nextDouble() * 10
        val y = x + rnd.nextDouble()
        sy(b) += y; sx(b) += x; c(b) += 1
      }
      (BucketedMetric(sy, c), BucketedMetric(sx, c))
    }
    val (yT, xT) = sim(31L)
    val (yC, xC) = sim(32L)
    val theta = cupedTheta(yT, xT, yC, xC)
    assert(theta > 0.8 && theta < 1.2, s"theta=$theta")
    val xBar = (xT.totalSum + xC.totalSum) / (xT.totalCount + xC.totalCount)
    val (_, adjVar) = cupedAdjust(yT, xT, theta, xBar)
    assert(adjVar < variance(yT) * 0.2, s"adjusted $adjVar vs raw ${variance(yT)}")
  }

  test("CUPED t-test keeps the A/A null (no effect stays undetected)") {
    def sim(seed: Long) = {
      val rnd = new Random(seed)
      val n = 20000; val nB = 64
      val sy = new Array[Double](nB); val sx = new Array[Double](nB); val c = new Array[Double](nB)
      (0 until n).foreach { i =>
        val b = math.abs((i * 40503L + seed).hashCode) % nB
        val x = rnd.nextDouble() * 4
        sy(b) += x + rnd.nextDouble(); sx(b) += x; c(b) += 1
      }
      (BucketedMetric(sy, c), BucketedMetric(sx, c))
    }
    val (yT, xT) = sim(41L)
    val (yC, xC) = sim(42L)
    val r = cupedTTest(yT, xT, yC, xC)
    assert(r.pValue > 0.001, s"A/A rejected: $r")
  }

  test("fromRows builds dense grids from sparse rows") {
    val m = fromRows(Seq((1, 10L, 2L), (3, 30L, 4L)), nBuckets = 4)
    assert(m.sums.toSeq == Seq(10.0, 0.0, 30.0, 0.0))
    assert(m.counts.toSeq == Seq(2.0, 0.0, 4.0, 0.0))
  }

  test("fromRows supports 0-based bucket ids (segment-as-bucket)") {
    val m = fromRows(Seq((0, 5L, 1L), (2, 7L, 2L)), nBuckets = 3, firstBucketId = 0)
    assert(m.sums.toSeq == Seq(5.0, 0.0, 7.0))
  }

  test("fromRows rejects out-of-range buckets") {
    intercept[IllegalArgumentException](fromRows(Seq((5, 1L, 1L)), nBuckets = 4))
    intercept[IllegalArgumentException](fromRows(Seq((0, 1L, 1L)), nBuckets = 4))
  }

  // ------------------------------------------------------ degenerate arms

  /** An arm whose every unit has value `v`: `units(b)` units in bucket b. */
  private def flat(v: Double, units: Double*): BucketedMetric =
    BucketedMetric(units.map(_ * v).toArray, units.toArray)

  test("zero spread, means 3 vs 2: tStat +∞, p 0, df = dfT + dfC") {
    val (t, c) = (flat(3, 1, 2, 1, 4), flat(2, 2, 2, 3))
    val x = flat(1, 1, 2, 1, 4)
    for (r <- Seq(welchTTest(t, c), cupedTTest(t, x, c, flat(1, 2, 2, 3)))) {
      assert(r.delta == 1.0 && r.tStat == Double.PositiveInfinity, r)
      assert(r.pValue == 0.0 && r.df == 5.0, r)
    }
    assert(welchTTest(c, t).tStat == Double.NegativeInfinity)
  }

  test("equal means with zero spread: tStat 0, p 1, df = dfT + dfC") {
    val r = welchTTest(flat(2, 1, 3), flat(2, 4, 1, 1))
    assert(r.delta == 0.0 && r.tStat == 0.0 && r.pValue == 1.0 && r.df == 3.0, r)
  }

  test("one-bucket arms throw IllegalArgumentException") {
    val (one, many) = (BucketedMetric(Array(5.0), Array(2.0)), flat(1, 1, 2, 3))
    intercept[IllegalArgumentException](variance(one))
    intercept[IllegalArgumentException](welchTTest(one, many))
    intercept[IllegalArgumentException](welchTTest(many, one))
    intercept[IllegalArgumentException](cupedTTest(one, one, many, many))
  }

  test("an arm with no exposed unit throws IllegalArgumentException naming it") {
    val (none, some) = (flat(0, 0, 0, 0), BucketedMetric(Array(3.0, 1.0, 4.0), Array(1.0, 1.0, 2.0)))
    for ((r, arm) <- Seq((() => welchTTest(some, none), "control"), (() => welchTTest(none, some), "treatment"),
                         (() => cupedTTest(some, some, none, none), "control"))) {
      val e = intercept[IllegalArgumentException](r())
      assert(e.getMessage.contains(arm), e.getMessage)
    }
  }

  test("a zero control mean: relativeDelta throws ArithmeticException") {
    val r = welchTTest(BucketedMetric(Array(3.0, 1.0, 4.0), Array(1.0, 1.0, 2.0)), flat(0, 2, 1, 3))
    assert(r.meanControl == 0.0 && r.pValue < 1.0)
    intercept[ArithmeticException](r.relativeDelta)
  }

  test("cupedTTest with an all-zero covariate equals welchTTest field for field") {
    for (seed <- 0 until 5) {
      val (t, _) = simulate(5000, 16 + seed, 300L + seed, _.nextDouble() + 0.05 * seed)
      val (c, _) = simulate(4000, 16 + 2 * seed, 400L + seed, _.nextDouble())
      def zero(m: BucketedMetric) = BucketedMetric(new Array[Double](m.nBuckets), m.counts)
      assert(cupedTTest(t, zero(t), c, zero(c)) == welchTTest(t, c))
    }
  }

  test("no TTestResult field is NaN for any input that does not throw") {
    val rnd = new Random(7)
    // 1..4 buckets of 0..6 units; a bucket's sum is its units × one of 0, 1, 2
    // (often the same for all buckets: zero spread), or a random total
    def arm(nB: Int, perUnit: Int): BucketedMetric = {
      val units = Array.fill(nB)(rnd.nextInt(7).toDouble * rnd.nextInt(2))
      BucketedMetric(units.map(n => if (rnd.nextBoolean()) n * perUnit else n * rnd.nextInt(5)), units)
    }
    var tested = 0
    for (_ <- 0 until 3000) {
      val (nT, nC) = (1 + rnd.nextInt(4), 1 + rnd.nextInt(4))
      val (yT, yC) = (arm(nT, rnd.nextInt(3)), arm(nC, rnd.nextInt(3)))
      def onGrid(y: BucketedMetric) = BucketedMetric(y.counts.map(_ * rnd.nextInt(3)), y.counts)
      for (attempt <- Seq(Try(welchTTest(yT, yC)), Try(cupedTTest(yT, onGrid(yT), yC, onGrid(yC))))) attempt match {
        case Success(r) =>
          tested += 1
          assert(!r.productIterator.exists(_.asInstanceOf[Double].isNaN), r)
          assert(Try(r.relativeDelta).fold(_.isInstanceOf[ArithmeticException], !_.isNaN), r)
        case Failure(e) => assert(e.isInstanceOf[IllegalArgumentException], e)
      }
    }
    assert(tested > 1000, s"only $tested inputs did not throw")
  }
}
