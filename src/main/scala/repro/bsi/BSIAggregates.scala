package repro.bsi

import org.roaringbitmap.RoaringBitmap

/** The paper's aggregate functions *over BSIs* (§4.1.3): each combines two
  * BSIs into one and is associative + commutative, so it can drive a Spark
  * aggregation or a pre-aggregate tree merge.
  */
object BSIAggregates {

  /** `sumBSI(X, Y) := X + Y` — row-wise sum. */
  def sumBSI(x: BSI, y: BSI): BSI = x.add(y)

  /** `mulBSI(X, Y) := X * Y` — row-wise product; absent (zero) on either side
    * yields zero, which is what makes it the conjunction of dimension filters
    * in §4.4.
    */
  def mulBSI(x: BSI, y: BSI): BSI = x.multiply(y)

  /** `maxBSI(X, Y) := X*(X>Y) + Y*(X<=Y)` — row-wise max.
    *
    * The paper's formula covers positions existing in both operands (its
    * comparisons require X[j]≠0 and Y[j]≠0); since absent means zero, a value
    * present on only one side is its own max, so one-sided positions pass
    * through unchanged.
    */
  def maxBSI(x: BSI, y: BSI): BSI = {
    val both  = RoaringBitmap.and(x.existence, y.existence)
    val xMask = x.gt(y) // X>Y, both exist
    xMask.or(RoaringBitmap.andNot(x.existence, both)) // + X-only
    val yMask = x.le(y) // X<=Y, both exist
    yMask.or(RoaringBitmap.andNot(y.existence, both)) // + Y-only
    x.andBinary(xMask).add(y.andBinary(yMask))
  }

  /** `distinctPos(X, Y) := (X>0) OR (Y>0)` — binary BSI of positions holding a
    * non-zero value in either input; drives unique-count (UV) metrics.
    */
  def distinctPos(x: BSI, y: BSI): BSI =
    BSI.fromBitmap(RoaringBitmap.or(x.existence, y.existence))
}
