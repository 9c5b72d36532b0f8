package repro.bsi

import org.roaringbitmap.RoaringBitmap
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Failure, Success, Try}

/** ScalaCheck properties over the full operator set — randomized column shapes
  * beyond the fixed seeds of the other suites. (scalatestplus is not on the
  * offline classpath, so properties run through ScalaCheck's own runner.)
  */
class BSIPropertySpec extends AnyFunSuite {
  import RefModel._

  private def check(prop: Prop, minSuccessfulTests: Int = 60): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minSuccessfulTests), prop)
    assert(res.passed, res.status.toString)
  }

  private val genRef: Gen[Ref] = for {
    n   <- Gen.choose(0, 300)
    mx  <- Gen.oneOf(1L, 7L, 100L, 65535L, 1L << 24)
    u   <- Gen.oneOf(100, 5000, 1 << 20)
    seed <- Gen.choose(0L, Long.MaxValue / 2)
  } yield random(seed, n, u, mx)

  test("property: codec round-trip is identity") {
    check(Prop.forAll(genRef) { r => bsiToRef(BSICodec.deserialize(BSICodec.serialize(toBsi(r)))) == r })
  }

  test("property: add matches reference") {
    check(Prop.forAll(genRef, genRef) { (x, y) => bsiToRef(toBsi(x).add(toBsi(y))) == add(x, y) })
  }

  test("property: subtract matches reference") {
    check(Prop.forAll(genRef, genRef) { (x, y) =>
      bsiToRef(toBsi(x).subtract(toBsi(y))) == subtract(x, y)
    })
  }

  test("property: multiply matches reference (bounded values)") {
    val bounded = genRef.map(_.view.mapValues(v => (v % 65536) + 1).toMap)
    check(Prop.forAll(bounded, bounded) { (x, y) =>
      bsiToRef(toBsi(x).multiply(toBsi(y))) == multiply(x, y)
    })
  }

  test("property: builder sums repeated positions, in any order, across merged builders") {
    val genRows = for {
      u    <- Gen.oneOf(1, 50, 5000, 1 << 20)
      mx   <- Gen.oneOf(1L, 100L, 1L << 40)
      rows <- Gen.listOf(Gen.zip(Gen.choose(0, u - 1), Gen.choose(0L, mx)))
      cut  <- Gen.choose(0, rows.size)
    } yield (rows, cut)
    check(Prop.forAll(genRows) { case (rows, cut) =>
      val (a, b) = (new BSIBuilder, new BSIBuilder)
      rows.take(cut).foreach { case (p, v) => a.put(p, v) }
      rows.drop(cut).foreach { case (p, v) => b.put(p, v) }
      val expected = rows.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0L)
      bsiToRef(a.merge(b).result()) == expected
    })
  }

  test("property: lt/eq/gt partition the both-exist positions") {
    check(Prop.forAll(genRef, genRef) { (x, y) =>
      val (bx, by) = (toBsi(x), toBsi(y))
      val both = x.keySet.intersect(y.keySet)
      val lt = bitmapToSet(bx.lt(by)); val eq = bitmapToSet(bx.eqTo(by)); val gt = bitmapToSet(bx.gt(by))
      (lt ++ eq ++ gt) == both && lt.intersect(eq).isEmpty && lt.intersect(gt).isEmpty &&
        eq.intersect(gt).isEmpty
    })
  }

  test("property: constant comparisons match reference for arbitrary k") {
    val genK = Gen.oneOf(Gen.choose(-5L, 10L), Gen.choose(0L, 1L << 26),
                         Gen.oneOf(Long.MinValue, 0L, Long.MaxValue - 1, Long.MaxValue),
                         Gen.choose((1L << 62) - 2, (1L << 62) + 2))
    check(Prop.forAll(genRef, genK) { (x, k) =>
      val b = toBsi(x)
      bitmapToSet(b.ltConst(k)) == compareConst(x, k, _ < _) &&
        bitmapToSet(b.leConst(k)) == compareConst(x, k, _ <= _) &&
        bitmapToSet(b.gtConst(k)) == compareConst(x, k, _ > _) &&
        bitmapToSet(b.geConst(k)) == compareConst(x, k, _ >= _) &&
        bitmapToSet(b.eqConst(k)) == compareConst(x, k, _ == _) &&
        bitmapToSet(b.neqConst(k)) == compareConst(x, k, _ != _)
    })
  }

  private val constOps: Seq[((BSI, Long) => RoaringBitmap, (Long, Long) => Boolean)] = Seq(
    (_.ltConst(_), _ < _), (_.leConst(_), _ <= _), (_.gtConst(_), _ > _),
    (_.geConst(_), _ >= _), (_.eqConst(_), _ == _), (_.neqConst(_), _ != _))

  /** The scorecard cell under each comparison op, `filteredSum` over the mask
    * and the mask's count, equals the reference sum of `value` over exposed
    * positions and the exposed count.
    */
  private def cellMatches(value: Ref, offset: Ref, k: Long): Boolean =
    constOps.forall { case (mask, cmp) =>
      val exposed = compareConst(offset, k, cmp)
      val m = mask(toBsi(offset), k)
      (toBsi(value).filteredSum(m), m.getLongCardinality) ==
        ((exposed.iterator.map(value.getOrElse(_, 0L)).sum, exposed.size.toLong))
    }

  test("property: filteredSum over an expose mask matches reference for every op") {
    // offsets 1..maxOffset over the value universe, as an expose BSI holds them
    val genOffset = for {
      n <- Gen.choose(0, 300); mx <- Gen.oneOf(1L, 7L, 30L); seed <- Gen.choose(0L, 1L << 40)
    } yield random(seed, n, 5000, mx)
    val genK = Gen.oneOf(Gen.choose(-3L, 0L), Gen.choose(1L, 31L), Gen.choose(32L, 1L << 26))
    check(Prop.forAll(genRef, genOffset, genK)(cellMatches))
    val (value, offset) = (random(11, 300, 5000, 1000L), random(12, 300, 5000, 7L))
    for ((v, o, k) <- Seq((Map.empty[Int, Long], offset, 3L), (value, Map.empty[Int, Long], 3L),
                          (value, offset, 0L), (value, offset, -2L), (value, offset, offset.values.max + 1),
                          (value, offset, Long.MaxValue), (value, offset, Long.MinValue)))
      assert(cellMatches(v, o, k), s"value size ${v.size}, offset size ${o.size}, k $k")
  }

  /** The bucketed cell under each comparison op equals a reference group-by
    * of the exposed positions that have a bucket.
    */
  private def bucketCellMatches(value: Ref, offset: Ref, k: Long, bucket: Ref): Boolean =
    constOps.forall { case (mask, cmp) =>
      val byBucket = compareConst(offset, k, cmp).filter(bucket.contains).groupBy(bucket)
      val expected = byBucket.toSeq.sortBy(_._1).map { case (b, ps) =>
        (b, ps.iterator.map(value.getOrElse(_, 0L)).sum, ps.size.toLong)
      }
      toBsi(value).bucketExposedSums(mask(toBsi(offset), k), toBsi(bucket)) == expected
    }

  test("property: bucketExposedSums matches a reference group-by for every comparison op") {
    val genOffset = for {
      n <- Gen.choose(0, 300); mx <- Gen.oneOf(1L, 7L); seed <- Gen.choose(0L, 1L << 40)
    } yield random(seed, n, 3000, mx)
    val genBucket = for {
      n <- Gen.choose(0, 300); mx <- Gen.oneOf(1L, 8L, 1024L, 1L << 11); seed <- Gen.choose(0L, 1L << 40)
    } yield random(seed, n, 3000, mx)
    val genK = Gen.oneOf(Gen.choose(-2L, 0L), Gen.choose(1L, 8L))
    check(Prop.forAll(genRef, genOffset, genK, genBucket)(bucketCellMatches))
    val value  = random(21, 300, 3000, 1000L)
    val offset = random(22, 300, 3000, 7L)
    val bucket = random(23, 300, 3000, 1L << 11)
    val none   = Map.empty[Int, Long]
    val apart  = offset.keySet.filter(_ % 2 == 0)
    val split  = (offset.view.filterKeys(apart).toMap, bucket.view.filterKeys(p => !apart(p)).toMap)
    for ((v, o, k, b) <- Seq(
           (none, offset, 4L, bucket),                      // no values: counts with sum 0
           (value, none, 4L, bucket),                       // empty mask
           (value, offset, 4L, none),                       // no position has a bucket
           (value, split._1, 4L, split._2),                 // mask and buckets disjoint
           (value, offset, 0L, bucket), (value, offset, -5L, bucket),
           (value, offset, 4L, offset.keySet.map(_ -> (1L << 11)).toMap))) // one top bucket
      assert(bucketCellMatches(v, o, k, b), s"value ${v.size}, offset ${o.size}, k $k, bucket ${b.size}")
    val withCounts = toBsi(none).bucketExposedSums(toBsi(offset).leConst(4L), toBsi(bucket))
    assert(withCounts.nonEmpty && withCounts.forall(c => c._2 == 0L && c._3 > 0L))
  }

  test("property: sumValues/count/min/max/median agree with the decoded column") {
    check(Prop.forAll(genRef) { r =>
      val b = toBsi(r)
      r.isEmpty ||
        (b.sumValues == r.values.sum && b.count == r.size &&
         b.minValue == r.values.min && b.maxValue == r.values.max &&
         b.median == r.values.toSeq.sorted.apply((r.size + 1) / 2 - 1))
    })
  }

  test("property: maxBSI is pointwise max with absent-as-zero") {
    check(Prop.forAll(genRef, genRef) { (x, y) =>
      bsiToRef(BSIAggregates.maxBSI(toBsi(x), toBsi(y))) == maxOf(x, y)
    })
  }

  test("property: distinctPos existence is the key union") {
    check(Prop.forAll(genRef, genRef) { (x, y) =>
      bitmapToSet(BSIAggregates.distinctPos(toBsi(x), toBsi(y)).existence) == (x.keySet ++ y.keySet)
    })
  }

  test("property: andBinary equals filterKeys") {
    check(Prop.forAll(genRef) { r =>
      val keep = r.keySet.filter(_ % 2 == 0)
      val bm = new org.roaringbitmap.RoaringBitmap()
      keep.foreach(bm.add)
      bsiToRef(toBsi(r).andBinary(bm)) == r.view.filterKeys(keep).toMap
    })
  }

  // ---------------------------------------------------------------- edges
  // Values near 2^62 and 2^63−1 (and near √2^63, so products straddle
  // Long.MaxValue), positions near Int.MaxValue, one-sided and empty operands.

  private val genEdgeValue: Gen[Long] = Gen.oneOf(
    Gen.choose(1L, 100L), Gen.choose(3037000490L, 3037000510L),
    Gen.choose((1L << 62) - 3, (1L << 62) + 3), Gen.choose(Long.MaxValue - 3, Long.MaxValue))
  private val genEdgePos: Gen[Int] = Gen.oneOf(Gen.choose(0, 40), Gen.choose(Int.MaxValue - 40, Int.MaxValue))
  private val genEdgeRef: Gen[Ref] =
    Gen.frequency(1 -> Gen.const(Map.empty[Int, Long]), 5 -> Gen.mapOf(Gen.zip(genEdgePos, genEdgeValue)))
  private val genEdgePair: Gen[(Ref, Ref)] = for {
    x <- genEdgeRef; y <- genEdgeRef; vs <- Gen.listOfN(x.size, genEdgeValue); shape <- Gen.choose(0, 4)
  } yield shape match {
    case 0 => (x, y)
    case 1 => (x, x.keys.zip(vs).toMap) // the same positions
    case 2 => (x, y -- x.keySet)        // one-sided: no shared position
    case 3 => (x, Map.empty[Int, Long])
    case _ => (Map.empty[Int, Long], y)
  }

  /** `got` equals `expected` when every value of the `BigInt` reference fits a
    * Long, and throws `ArithmeticException` exactly when one does not.
    */
  private def exactOrThrows[A](reference: Iterable[BigInt], expected: => A)(got: => A): Boolean = {
    val fits = reference.forall(_ <= Long.MaxValue)
    Try(got) match {
      case Success(v)                      => fits && v == expected
      case Failure(_: ArithmeticException) => !fits
      case Failure(e)                      => throw e
    }
  }

  private def bitmapOf(ps: Iterable[Int]): RoaringBitmap = { val bm = new RoaringBitmap(); ps.foreach(bm.add); bm }

  test("property (edges): add equals the BigInt reference or throws past Long.MaxValue") {
    check(Prop.forAll(genEdgePair) { case (x, y) =>
      val ref = (x.keySet ++ y.keySet).map(p => p -> (BigInt(x.getOrElse(p, 0L)) + BigInt(y.getOrElse(p, 0L)))).toMap
      exactOrThrows(ref.values, ref.view.mapValues(_.toLong).toMap)(bsiToRef(toBsi(x).add(toBsi(y))))
    })
  }

  test("property (edges): multiply equals the BigInt reference or throws past Long.MaxValue") {
    // few positions, so a product just past Long.MaxValue is often the only overflow
    check(Prop.forAll(Gen.resize(3, genEdgePair)) { case (x, y) =>
      val ref = x.keySet.intersect(y.keySet).map(p => p -> BigInt(x(p)) * y(p)).toMap
      exactOrThrows(ref.values, ref.view.mapValues(_.toLong).toMap)(bsiToRef(toBsi(x).multiply(toBsi(y))))
    }, minSuccessfulTests = 500)
  }

  test("property (edges): sumValues and filteredSum equal the BigInt sum or throw past Long.MaxValue") {
    check(Prop.forAll(genEdgePair) { case (x, y) =>
      val all    = x.values.map(BigInt(_)).sum
      val masked = x.view.filterKeys(y.contains).values.map(BigInt(_)).sum
      exactOrThrows(Seq(all), all.toLong)(toBsi(x).sumValues) &&
        exactOrThrows(Seq(masked), masked.toLong)(toBsi(x).filteredSum(bitmapOf(y.keySet)))
    })
  }

  test("property (edges): codec round-trip is identity") {
    check(Prop.forAll(genEdgeRef) { r => bsiToRef(BSICodec.deserialize(BSICodec.serialize(toBsi(r)))) == r })
  }

  test("property (edges): builder sums repeated positions or throws past Long.MaxValue") {
    val genRows = for {
      rows <- Gen.listOf(Gen.zip(genEdgePos, genEdgeValue)); cut <- Gen.choose(0, rows.size)
    } yield (rows, cut)
    check(Prop.forAll(genRows) { case (rows, cut) =>
      val (a, b) = (new BSIBuilder, new BSIBuilder)
      rows.take(cut).foreach { case (p, v) => a.put(p, v) }
      rows.drop(cut).foreach { case (p, v) => b.put(p, v) }
      val ref = rows.groupMapReduce(_._1)(r => BigInt(r._2))(_ + _)
      exactOrThrows(ref.values, ref.view.mapValues(_.toLong).toMap)(bsiToRef(a.merge(b).result()))
    })
  }

  test("property (edges): constant comparisons match reference") {
    val genK = Gen.oneOf(genEdgeValue, Gen.choose(-2L, 2L), Gen.const(Long.MinValue))
    check(Prop.forAll(genEdgeRef, genK) { (x, k) =>
      val b = toBsi(x)
      constOps.forall { case (mask, cmp) => bitmapToSet(mask(b, k)) == compareConst(x, k, cmp) }
    })
  }
}
