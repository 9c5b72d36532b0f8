package repro.bsi

import org.roaringbitmap.RoaringBitmap

/** Bit-sliced index (BSI) over Roaring bitmaps — the paper's core data structure.
  *
  * A BSI represents a column of non-negative integer values keyed by a dense
  * ordinal *position* (the paper's position encoding, §3.4): slice `i` holds the
  * set of positions whose value has bit `i` set, so
  * `value(p) = Σ_i 2^i · [p ∈ slice(i)]`.
  *
  * Following the paper, **a value of zero is treated as "not existing"**: the
  * existence of a position is exactly "some slice contains it", and the
  * comparison operators only report positions that are non-zero on *both*
  * operands (§2.3, Algorithms 1–3). This convention keeps the Roaring bitmaps
  * compact because absent rows cost nothing.
  *
  * All operations work directly on the compressed bitmaps via Roaring's
  * word-parallel AND/OR/XOR/ANDNOT — values are never decoded to a row format.
  * Instances are immutable; every operation returns a fresh BSI and never
  * mutates its inputs.
  */
final class BSI private[bsi] (private val slices: Array[RoaringBitmap]) extends Serializable {
  import BSI._

  /** Number of slices; trailing empty slices are trimmed at construction, so
    * the top slice of a non-empty BSI is non-empty.
    */
  def numSlices: Int = slices.length

  /** Slice `i` (read-only — callers must clone before mutating); positions in
    * it have bit `i` of their value set. Out-of-range `i` yields an empty bitmap.
    */
  def slice(i: Int): RoaringBitmap = if (i < slices.length) slices(i) else EmptyBitmap

  @transient private var existenceCache: RoaringBitmap = _

  /** Positions with a non-zero value (OR of all slices). Cached; read-only. */
  def existence: RoaringBitmap = {
    if (existenceCache == null) {
      val e = new RoaringBitmap()
      slices.foreach(e.or)
      existenceCache = e
    }
    existenceCache
  }

  /** True when every value is zero (i.e. no position exists). */
  def isEmpty: Boolean = slices.isEmpty

  /** Value at `pos`; 0 means the position does not exist. */
  def get(pos: Int): Long = {
    var v = 0L
    var i = 0
    while (i < slices.length) {
      if (slices(i).contains(pos)) v |= (1L << i)
      i += 1
    }
    v
  }

  // ----------------------------------------------------------------- arithmetic

  /** Row-wise addition (§2.3, Fig. 2): ripple-carry over slices using
    * XOR/AND/OR on whole bitmaps. A position existing in only one operand keeps
    * that operand's value (absent = 0).
    */
  def add(that: BSI): BSI = {
    if (this.isEmpty) return that
    if (that.isEmpty) return this
    val n   = math.max(numSlices, that.numSlices)
    val out = new Array[RoaringBitmap](n + 1)
    var carry = EmptyBitmap
    var i = 0
    while (i < n) {
      val x  = this.slice(i)
      val y  = that.slice(i)
      val xy = RoaringBitmap.xor(x, y)
      out(i) = RoaringBitmap.xor(xy, carry)
      // carry-out = (x AND y) OR ((x XOR y) AND carry-in)
      val c = RoaringBitmap.and(x, y)
      c.or(RoaringBitmap.and(xy, carry))
      carry = c
      i += 1
    }
    out(n) = carry
    fromSlices(out)
  }

  /** Row-wise subtraction `this - that`, defined where `this >= that`.
    * Positions that would underflow (including `that`-only positions) are
    * cleared to zero, staying in the paper's non-negative domain.
    */
  def subtract(that: BSI): BSI = {
    if (that.isEmpty) return this
    val n   = math.max(numSlices, that.numSlices)
    val out = new Array[RoaringBitmap](n)
    var borrow = EmptyBitmap
    var i = 0
    while (i < n) {
      val x  = this.slice(i)
      val y  = that.slice(i)
      val xy = RoaringBitmap.xor(x, y)
      out(i) = RoaringBitmap.xor(xy, borrow)
      // borrow-out = (~x AND y) OR (~x AND b) OR (y AND b)
      val b = RoaringBitmap.andNot(y, x)
      b.or(RoaringBitmap.andNot(borrow, x))
      b.or(RoaringBitmap.and(y, borrow))
      borrow = b
      i += 1
    }
    if (!borrow.isEmpty) { // underflow: clamp those rows to 0
      var j = 0
      while (j < n) { out(j).andNot(borrow); j += 1 }
    }
    fromSlices(out)
  }

  /** Multiply by a binary filter: keeps the value where `bits` is set, zeroes
    * it elsewhere. This is the linear-cost multiplication the paper relies on
    * ("we only need the multiplication with one of the operators being
    * binary"). `bits` is not mutated.
    */
  def andBinary(bits: RoaringBitmap): BSI = {
    if (isEmpty || bits.isEmpty) return empty
    val out = new Array[RoaringBitmap](numSlices)
    var i = 0
    while (i < numSlices) { out(i) = RoaringBitmap.and(slices(i), bits); i += 1 }
    fromSlices(out)
  }

  /** General row-wise multiplication (shift-and-add, O(s₁·s₂) bitmap ops). */
  def multiply(that: BSI): BSI = {
    if (this.isEmpty || that.isEmpty) return empty
    // Iterate the operand with fewer slices for fewer partial products.
    val (a, b) = if (this.numSlices <= that.numSlices) (that, this) else (this, that)
    var acc = empty
    var i = 0
    while (i < b.numSlices) {
      val bi = b.slice(i)
      if (!bi.isEmpty) acc = acc.add(a.andBinary(bi).shiftSlices(i))
      i += 1
    }
    acc
  }

  /** Shift all values left by `n` bits (multiply by 2^n) by prepending `n`
    * empty slices.
    */
  def shiftSlices(n: Int): BSI = {
    if (n == 0 || isEmpty) return this
    val out = new Array[RoaringBitmap](numSlices + n)
    var i = 0
    while (i < n) { out(i) = new RoaringBitmap(); i += 1 }
    System.arraycopy(slices, 0, out, n, numSlices)
    fromSlices(out)
  }

  // ----------------------------------------------- comparisons vs another BSI

  /** Algorithm 1: binary bitmap L with L[j]=1 iff X[j]≠0, Y[j]≠0 and X[j]<Y[j]. */
  def lt(that: BSI): RoaringBitmap = {
    val n = math.max(numSlices, that.numSlices)
    var l = new RoaringBitmap()
    var i = 0
    while (i < n) { // low-order slice first, per the paper
      val x = this.slice(i)
      val y = that.slice(i)
      // L ← [(Y OR L) ANDNOT X] OR (Y AND L)
      val t = RoaringBitmap.or(y, l)
      t.andNot(x)
      t.or(RoaringBitmap.and(y, l))
      l = t
      i += 1
    }
    l.and(this.existence) // the recurrence alone would report 0 < Y[j]
    l.and(that.existence)
    l
  }

  /** Algorithm 2: binary bitmap E with E[j]=1 iff X[j]=Y[j]≠0. */
  def eqTo(that: BSI): RoaringBitmap = {
    val e = existence.clone()
    val n = math.max(numSlices, that.numSlices)
    var i = 0
    while (i < n) {
      e.andNot(RoaringBitmap.xor(this.slice(i), that.slice(i)))
      i += 1
    }
    e
  }

  /** Algorithm 3: binary bitmap NE with NE[j]=1 iff X[j]≠0, Y[j]≠0, X[j]≠Y[j]. */
  def neq(that: BSI): RoaringBitmap = {
    val ne = new RoaringBitmap()
    val n  = math.max(numSlices, that.numSlices)
    var i  = 0
    while (i < n) {
      ne.or(RoaringBitmap.xor(this.slice(i), that.slice(i)))
      i += 1
    }
    ne.and(this.existence)
    ne.and(that.existence)
    ne
  }

  /** X[j]≠0, Y[j]≠0 and X[j] ≤ Y[j]. */
  def le(that: BSI): RoaringBitmap = { val r = lt(that); r.or(eqTo(that)); r }

  /** X[j]≠0, Y[j]≠0 and X[j] > Y[j]. */
  def gt(that: BSI): RoaringBitmap = that.lt(this)

  /** X[j]≠0, Y[j]≠0 and X[j] ≥ Y[j]. */
  def ge(that: BSI): RoaringBitmap = that.le(this)

  // ------------------------------------------------ comparisons vs a constant

  /** O'Neil–Quass bit-sliced range search (SIGMOD 1997), high slice first:
    * (positions with 0 < value < k, positions with value = k). Once `eq` is
    * empty `lt` cannot grow, so the walk stops there.
    */
  private def rangeSearch(k: Long): (RoaringBitmap, RoaringBitmap) = {
    val lt = new RoaringBitmap()
    if (k <= 0) return (lt, new RoaringBitmap()) // zero = absent, never below or equal
    val eq = existence.clone()
    var i  = math.max(numSlices, 64 - java.lang.Long.numberOfLeadingZeros(k)) - 1
    while (i >= 0 && !eq.isEmpty) {
      val x = slice(i)
      if (((k >> i) & 1L) == 1L) { lt.or(RoaringBitmap.andNot(eq, x)); eq.and(x) }
      else eq.andNot(x)
      i -= 1
    }
    (lt, eq)
  }

  private def existenceMinus(bm: RoaringBitmap): RoaringBitmap = RoaringBitmap.andNot(existence, bm)

  /** Positions with 0 < value < k. */
  def ltConst(k: Long): RoaringBitmap = rangeSearch(k)._1

  /** Positions with value = k ≠ 0. */
  def eqConst(k: Long): RoaringBitmap = rangeSearch(k)._2

  /** Positions with 0 < value ≤ k. */
  def leConst(k: Long): RoaringBitmap =
    if (k == Long.MaxValue) existence.clone() else ltConst(k + 1)

  /** Positions with value > k; zero (absent) never matches, so `k <= 0` selects all. */
  def gtConst(k: Long): RoaringBitmap = existenceMinus(leConst(k))

  /** Positions with value ≥ k (and value ≠ 0). */
  def geConst(k: Long): RoaringBitmap = existenceMinus(ltConst(k))

  /** Positions with value ≠ k and value ≠ 0. */
  def neqConst(k: Long): RoaringBitmap = existenceMinus(eqConst(k))

  /** Positions with lo ≤ value ≤ hi (and value ≠ 0). */
  def betweenConst(lo: Long, hi: Long): RoaringBitmap = {
    val r = geConst(lo)
    r.and(leConst(hi))
    r
  }

  // ------------------------------------------------------- in-BSI aggregates

  /** Number of existing (non-zero) positions. */
  def count: Long = existence.getLongCardinality

  /** Σ values = Σ_i 2^i · |slice(i)| — computed without decoding any row; a
    * sum past `Long.MaxValue` throws `ArithmeticException`.
    */
  def sumValues: Long = {
    var s = 0L
    var i = 0
    while (i < numSlices) {
      s = Math.addExact(s, Math.multiplyExact(slices(i).getLongCardinality, 1L << i))
      i += 1
    }
    s
  }

  /** Mean over existing positions; NaN when empty. Exact past a `Long` sum, as `toString` is. */
  def avgValue: Double = if (isEmpty) Double.NaN else exactSum.toDouble / count

  private def exactSum: BigInt = slices.indices.map(i => BigInt(slices(i).getLongCardinality) << i).sum

  /** Σ values over the positions in `mask` — the fused form of
    * `andBinary(mask).sumValues` used by sum-after-filter queries: per slice
    * only an AND-cardinality is computed, nothing is materialized. Exact, as
    * `sumValues` is.
    */
  def filteredSum(mask: RoaringBitmap): Long = {
    var s = 0L
    var i = 0
    while (i < numSlices) {
      s = Math.addExact(s, Math.multiplyExact(RoaringBitmap.andCardinality(slices(i), mask).toLong, 1L << i))
      i += 1
    }
    s
  }

  /** Bucketed scorecard cell (§4.2, §3.3): one `(bucket id, Σ values over the
    * exposed units of the bucket, exposed count)` per non-empty bucket, in
    * bucket order. The exposed positions that have a bucket are split by the
    * slices of `buckets` in one high-to-low pass (the bit-sliced group-by of
    * O'Neil & Quass, SIGMOD 1997), dropping empty branches, so each leaf is
    * one bucket's positions.
    */
  def bucketExposedSums(mask: RoaringBitmap, buckets: BSI): Seq[(Long, Long, Long)] = {
    val out = Seq.newBuilder[(Long, Long, Long)]
    // `bm` is owned here, so it becomes the zero branch in place
    def split(bm: RoaringBitmap, i: Int, id: Long): Unit =
      if (i < 0) out += ((id, filteredSum(bm), bm.getLongCardinality))
      else {
        val one = RoaringBitmap.and(bm, buckets.slice(i))
        bm.andNot(buckets.slice(i))
        if (!bm.isEmpty) split(bm, i - 1, id)
        if (!one.isEmpty) split(one, i - 1, id | (1L << i))
      }
    val exposed = RoaringBitmap.and(mask, buckets.existence)
    if (!exposed.isEmpty) split(exposed, buckets.numSlices - 1, 0L)
    out.result()
  }

  /** Smallest non-zero value; 0 when empty. */
  def minValue: Long = if (isEmpty) 0L else kthSmallest(1)

  /** Largest value; 0 when empty. */
  def maxValue: Long = if (isEmpty) 0L else kthSmallest(count)

  /** k-th smallest (1-indexed) among existing values; requires 1 ≤ k ≤ count.
    * Bit-sliced selection: walk slices high→low keeping a candidate set.
    */
  def kthSmallest(k: Long): Long = {
    require(k >= 1 && k <= count, s"k=$k out of range 1..$count")
    var cand = existence.clone()
    var rem  = k
    var v    = 0L
    var i    = numSlices - 1
    while (i >= 0) {
      val without = RoaringBitmap.andNot(cand, slice(i))
      val nw      = without.getLongCardinality
      if (rem <= nw) cand = without
      else { rem -= nw; cand.and(slice(i)); v |= (1L << i) }
      i -= 1
    }
    v
  }

  /** Median of existing values (lower median for even counts); 0 when empty. */
  def median: Long = if (isEmpty) 0L else kthSmallest((count + 1) / 2)

  /** q-quantile (n-tile) of existing values, q ∈ (0, 1]; 0 when empty. */
  def ntile(q: Double): Long = {
    require(q > 0 && q <= 1, s"quantile must be in (0,1], got $q")
    if (isEmpty) 0L else kthSmallest(math.max(1L, math.ceil(q * count).toLong))
  }

  // ------------------------------------------------------------------- misc

  /** Decode to `(position, value)` pairs in position order (tests / export). */
  def toPairs: Iterator[(Int, Long)] = {
    val it = existence.iterator()
    new Iterator[(Int, Long)] {
      def hasNext: Boolean = it.hasNext
      def next(): (Int, Long) = { val p = it.next(); (p, get(p)) }
    }
  }

  /** In-memory footprint of the compressed slices, in bytes (§3.5's "data size
    * processed by CPU").
    */
  def sizeInBytes: Long = slices.map(_.serializedSizeInBytes().toLong).sum

  override def equals(o: Any): Boolean = o match {
    case b: BSI => numSlices == b.numSlices && slices.indices.forall(i => slices(i) == b.slices(i))
    case _      => false
  }
  override def hashCode: Int = slices.toSeq.hashCode()
  override def toString: String = s"BSI(slices=$numSlices, count=$count, sum=$exactSum)"
}

/** Constructors for [[BSI]]. */
object BSI {
  private[bsi] val EmptyBitmap = new RoaringBitmap()

  /** The empty BSI (every value zero / absent). */
  val empty: BSI = new BSI(Array.empty)

  /** Build from `(position, value)` pairs through [[BSIBuilder]]: repeated
    * positions sum; zero values are dropped (zero = absent).
    */
  def fromPairs(pairs: IterableOnce[(Int, Long)]): BSI = {
    val b = new BSIBuilder
    pairs.iterator.foreach { case (p, v) => b.put(p, v) }
    b.result()
  }

  /** Wrap a binary (0/1-valued) bitmap as a single-slice BSI; `bits` is cloned. */
  def fromBitmap(bits: RoaringBitmap): BSI =
    if (bits.isEmpty) empty else new BSI(Array(bits.clone()))

  /** Most slices a BSI can have: values are non-negative `Long`s. */
  private[bsi] val MaxSlices = 63

  /** Take ownership of `raw` slices (no clone); trims trailing empties. A value
    * that needs a 64th slice throws `ArithmeticException`.
    */
  private[bsi] def fromSlices(raw: Array[RoaringBitmap]): BSI = {
    var n = raw.length
    while (n > 0 && raw(n - 1).isEmpty) n -= 1
    if (n > MaxSlices)
      throw new ArithmeticException(s"BSI value overflows a Long: it needs $n slices, at most $MaxSlices fit")
    if (n == 0) empty else new BSI(raw.take(n))
  }
}
