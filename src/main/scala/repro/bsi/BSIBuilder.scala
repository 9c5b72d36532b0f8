package repro.bsi

import org.roaringbitmap.{RoaringBitmap, RoaringBitmapWriter}

/** Append buffer for building a [[BSI]] from `(position, value)` rows.
  *
  * `put` and `merge` only append; `result()` sorts the rows by position once,
  * sums each run of equal positions (a unit that contributes several rows,
  * e.g. page-view-level raw rows rolled up to a unit) and writes every slice
  * in position order with Roaring's ordered-append writer.
  *
  * Java-serializable so it can serve as a Spark `Aggregator` buffer;
  * serialization only happens at shuffle boundaries.
  */
final class BSIBuilder extends Serializable {
  private var positions = new Array[Int](16)
  private var values    = new Array[Long](16)
  private var n         = 0 // rows in use

  private def ensure(cap: Int): Unit =
    if (cap > positions.length) {
      val grown = math.max(cap, positions.length * 2)
      positions = java.util.Arrays.copyOf(positions, grown)
      values = java.util.Arrays.copyOf(values, grown)
    }

  /** Add `value` at `pos`; repeated positions sum. Zero is a no-op. */
  def put(pos: Int, value: Long): this.type = {
    require(value >= 0, s"BSI values are non-negative; got $value at pos $pos")
    if (value != 0) {
      ensure(n + 1)
      positions(n) = pos
      values(n) = value
      n += 1
    }
    this
  }

  /** Append another builder's rows; colliding positions sum in `result()`. */
  def merge(that: BSIBuilder): this.type = {
    ensure(n + that.n)
    System.arraycopy(that.positions, 0, positions, n, that.n)
    System.arraycopy(that.values, 0, values, n, that.n)
    n += that.n
    this
  }

  /** Finish: run-optimized immutable BSI; a sum past `Long.MaxValue` throws
    * `ArithmeticException`. The builder is left unchanged.
    */
  def result(): BSI = {
    // one sort of `pos << 32 | row`: equal positions become adjacent runs
    val order = new Array[Long](n)
    var i = 0
    while (i < n) { order(i) = positions(i).toLong << 32 | i; i += 1 }
    java.util.Arrays.sort(order)
    val writers = new Array[RoaringBitmapWriter[RoaringBitmap]](BSI.MaxSlices)
    var top = 0
    i = 0
    while (i < n) {
      val pos = (order(i) >> 32).toInt
      var v   = values(order(i).toInt)
      i += 1
      while (i < n && (order(i) >> 32).toInt == pos) { v = Math.addExact(v, values(order(i).toInt)); i += 1 }
      top = math.max(top, 64 - java.lang.Long.numberOfLeadingZeros(v))
      while (v != 0) {
        val s = java.lang.Long.numberOfTrailingZeros(v)
        if (writers(s) == null) writers(s) = RoaringBitmapWriter.writer().get()
        writers(s).add(pos)
        v &= v - 1
      }
    }
    BSI.fromSlices(Array.tabulate(top) { s =>
      val bm = if (writers(s) == null) new RoaringBitmap() else writers(s).get()
      bm.runOptimize()
      bm
    })
  }

  // only the rows in use cross a shuffle
  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    positions = java.util.Arrays.copyOf(positions, n)
    values = java.util.Arrays.copyOf(values, n)
    out.defaultWriteObject()
  }
}
