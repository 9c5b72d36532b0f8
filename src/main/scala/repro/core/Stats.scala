package repro.core

import org.apache.commons.math3.distribution.TDistribution

/** Bucket-based statistical inference (§3.3, and the paper's reference [23]).
  *
  * Buckets are deterministic hash-replicates of the randomization units; under
  * SUTVA the per-bucket totals `(S_b, N_b)` are i.i.d. replicates, so the
  * ratio-estimator mean `m = ΣS/ΣN` gets a delta-method variance from bucket
  * residuals, and metric covariance (for CUPED, §4.3) comes from the same
  * residuals.
  */
object Stats {

  /** One metric in one strategy: per-bucket sums and exposed counts, aligned
    * by bucket id (missing buckets count as (0, 0)).
    */
  final case class BucketedMetric(sums: Array[Double], counts: Array[Double]) {
    require(sums.length == counts.length, "sums/counts must align by bucket")
    def nBuckets: Int = sums.length
    def totalSum: Double = sums.sum
    def totalCount: Double = counts.sum
    /** The metric value: per-exposed-unit mean. */
    def mean: Double = totalSum / totalCount
  }

  /** Delta-method variance of the ratio mean from B bucket replicates:
    * `Var(m) ≈ B/(B-1) · Σ_b (S_b − m·N_b)² / (ΣN)²`.
    */
  def variance(x: BucketedMetric): Double = covariance(x, x)

  /** Bucket-replicate covariance of two metrics of the *same* strategy
    * (buckets aligned, same exposure counts).
    */
  def covariance(x: BucketedMetric, y: BucketedMetric): Double = {
    require(x.nBuckets == y.nBuckets, "metrics must share the bucket grid")
    val b  = x.nBuckets
    require(b >= 2, s"bucket-replicate variance needs at least 2 buckets, got $b")
    val mx = x.mean
    val my = y.mean
    var acc = 0.0
    var i = 0
    while (i < b) {
      acc += (x.sums(i) - mx * x.counts(i)) * (y.sums(i) - my * y.counts(i))
      i += 1
    }
    acc * b / (b - 1.0) / (x.totalCount * y.totalCount)
  }

  /** Result of a two-sample comparison: the movement and the Welch t-test
    * p-value the scorecard reports.
    */
  final case class TTestResult(meanTreatment: Double, meanControl: Double, delta: Double,
                               tStat: Double, df: Double, pValue: Double) {
    /** `delta / meanControl`; a zero control mean throws `ArithmeticException`. */
    def relativeDelta: Double = if (meanControl != 0) delta / meanControl
                                else throw new ArithmeticException("relative delta of a zero control mean")
  }

  /** Welch t-test of treatment vs control means with bucket-derived variances
    * (each arm contributes B−1 degrees of freedom via Welch–Satterthwaite).
    */
  def welchTTest(t: BucketedMetric, c: BucketedMetric): TTestResult =
    welch(t.mean, variance(t), t, c.mean, variance(c), c)

  /** The one Welch test behind [[welchTTest]] and [[cupedTTest]]. Each arm's
    * buckets give its exposed count (none throws `IllegalArgumentException`)
    * and B−1 degrees of freedom. A zero standard error gives `tStat` 0 and
    * `p` 1 for equal means, else ±∞ and 0; zero variances give `df = dfT + dfC`.
    */
  private def welch(meanT: Double, varT: Double, bucketsT: BucketedMetric,
                    meanC: Double, varC: Double, bucketsC: BucketedMetric): TTestResult = {
    require(bucketsT.totalCount > 0, "treatment arm has no exposed unit")
    require(bucketsC.totalCount > 0, "control arm has no exposed unit")
    val delta = meanT - meanC
    val v     = varT + varC
    val (dfT, dfC) = (bucketsT.nBuckets - 1.0, bucketsC.nBuckets - 1.0)
    val df    = if (v == 0) dfT + dfC else math.pow(v, 2) / (varT * varT / dfT + varC * varC / dfC)
    val tStat = if (delta == 0) 0.0 else delta / math.sqrt(math.max(0.0, v)) // se = 0 gives ±∞
    val p = if (tStat.isInfinite) 0.0
            else 2.0 * (1.0 - new TDistribution(math.max(1.0, df)).cumulativeProbability(math.abs(tStat)))
    TTestResult(meanT, meanC, delta, tStat, df, p)
  }

  /** CUPED adjustment (§4.3, the paper's reference [5]): given the experiment
    * metric Y and the pre-experiment covariate X of one arm, returns
    * `(adjustedMean, adjustedVariance)` using
    * `θ = cov(Y,X)/var(X)`, `Y' = Y − θ(X − xBar)`,
    * `var(Y') = var(Y) − cov(Y,X)²/var(X)`.
    *
    * `theta` and `xBar` must be computed over both arms pooled and passed in,
    * so the same linear adjustment applies to treatment and control.
    */
  def cupedAdjust(y: BucketedMetric, x: BucketedMetric,
                  theta: Double, xBar: Double): (Double, Double) = {
    val adjMean = y.mean - theta * (x.mean - xBar)
    val adjVar  = variance(y) - 2 * theta * covariance(y, x) + theta * theta * variance(x)
    (adjMean, adjVar)
  }

  /** Pooled CUPED θ from both arms: `θ = (covT + covC) / (varT + varC)`. */
  def cupedTheta(yT: BucketedMetric, xT: BucketedMetric,
                 yC: BucketedMetric, xC: BucketedMetric): Double = {
    val num = covariance(yT, xT) + covariance(yC, xC)
    val den = variance(xT) + variance(xC)
    if (den == 0) 0.0 else num / den
  }

  /** Welch t-test on CUPED-adjusted means/variances. */
  def cupedTTest(yT: BucketedMetric, xT: BucketedMetric,
                 yC: BucketedMetric, xC: BucketedMetric): TTestResult = {
    val theta = cupedTheta(yT, xT, yC, xC)
    val xBar  = (xT.totalSum + xC.totalSum) / (xT.totalCount + xC.totalCount)
    val (mt, vt) = cupedAdjust(yT, xT, theta, xBar)
    val (mc, vc) = cupedAdjust(yC, xC, theta, xBar)
    welch(mt, vt, yT, mc, vc, yC)
  }

  /** Assemble a [[BucketedMetric]] from sparse `(bucket_id, sum, cnt)` rows on
    * a grid of `nBuckets` ids starting at `firstBucketId` (1 for true buckets,
    * 0 when segment ids double as bucket ids); absent buckets → zeros.
    */
  def fromRows(rows: Seq[(Int, Long, Long)], nBuckets: Int,
               firstBucketId: Int = 1): BucketedMetric = {
    val s = new Array[Double](nBuckets)
    val c = new Array[Double](nBuckets)
    rows.foreach { case (b, sm, ct) =>
      val i = b - firstBucketId
      require(i >= 0 && i < nBuckets,
        s"bucket id $b outside $firstBucketId..${firstBucketId + nBuckets - 1}")
      s(i) += sm.toDouble
      c(i) += ct.toDouble
    }
    BucketedMetric(s, c)
  }
}
