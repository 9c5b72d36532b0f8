package repro.bsi

import java.io.{ByteArrayInputStream, DataInputStream}
import org.roaringbitmap.RoaringBitmap
import org.scalatest.funsuite.AnyFunSuite

/** Serialization round-trips and builder semantics. */
class BSICodecBuilderSpec extends AnyFunSuite {
  import RefModel._

  test("codec round-trips the empty BSI") {
    assert(BSICodec.deserialize(BSICodec.serialize(BSI.empty)) == BSI.empty)
  }

  test("codec decodes null and zero-length input to empty") {
    assert(BSICodec.deserialize(null) == BSI.empty)
    assert(BSICodec.deserialize(Array.empty[Byte]) == BSI.empty)
  }

  /** Independent decode of the wire format through Roaring's stream reader. */
  private def streamDecode(bytes: Array[Byte]): Seq[RoaringBitmap] = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    Seq.fill(in.readInt()) { val bm = new RoaringBitmap(); bm.deserialize(in); bm }
  }

  for (seed <- 0 until 5) {
    test(s"codec round-trips random BSIs (seed $seed)") {
      val r = random(seed * 17, 300 + seed * 100, 10000, 1L << (8 + seed * 8))
      val b = toBsi(r)
      val bytes = BSICodec.serialize(b)
      val back = BSICodec.deserialize(bytes)
      assert(back == b)
      assert(bsiToRef(back) == r)
      assert((0 until back.numSlices).map(back.slice) == streamDecode(bytes))
      assert(BSICodec.serialize(back).sameElements(bytes)) // wire format unchanged
    }
  }

  test("codec encodes a big-endian slice count, then each slice's stream serialization") {
    val single = toBsi(random(7, 400, 70000, 1L))
    val runs   = toBsi((0 until 200000).map(p => p -> (p / 1000 % 5 + 1L)).toMap) // run and bitmap containers
    val shapes = Seq(BSI.empty, single, runs) ++
      (0 until 6).map(s => toBsi(random(s + 40, 50 << s, 1 << 20, 1L << (4 * s + 2))))
    assert(single.numSlices == 1)
    for (b <- shapes) {
      val bos = new java.io.ByteArrayOutputStream()
      val out = new java.io.DataOutputStream(bos)
      out.writeInt(b.numSlices)
      (0 until b.numSlices).foreach(b.slice(_).serialize(out))
      out.flush()
      assert(BSICodec.serialize(b).sameElements(bos.toByteArray), s"$b")
    }
  }

  private def decodeError(bytes: Array[Byte]): String =
    intercept[IllegalArgumentException](BSICodec.deserialize(bytes)).getMessage

  test("codec rejects a negative slice count") {
    assert(decodeError(Array[Byte](-1, -1, -1, -2)).contains("negative BSI slice count -2"))
  }

  test("codec rejects a slice count above 63") {
    // 63 empty slices under a non-empty 64th: a value of 2^63, past a Long
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    out.writeInt(64)
    (0 until 63).foreach(_ => new RoaringBitmap().serialize(out))
    RoaringBitmap.bitmapOf(0).serialize(out)
    out.flush()
    assert(decodeError(bos.toByteArray).contains("slice count 64 above 63"))
  }

  test("codec rejects truncated input") {
    val bytes = BSICodec.serialize(toBsi(random(5, 2000, 100000, 1L << 20)))
    assert(decodeError(bytes.take(3)).contains("no slice-count header"))
    // a count with no room for its slices, a cut at a slice boundary and cuts inside slices
    val firstSliceEnd = 4 + BSICodec.deserialize(bytes).slice(0).serializedSizeInBytes
    for (cut <- Seq(5, firstSliceEnd, bytes.length / 2, bytes.length - 1))
      assert(decodeError(bytes.take(cut)).contains("truncated"), s"cut at $cut of ${bytes.length}")
  }

  test("codec rejects trailing bytes after the last slice") {
    val bytes = BSICodec.serialize(toBsi(random(6, 300, 10000, 1000L)))
    assert(decodeError(bytes ++ Array[Byte](0, 0)).contains("2 trailing bytes"))
    assert(decodeError(Array[Byte](0, 0, 0, 0, 7)).contains("1 trailing bytes"))
  }

  test("codec round-trips a binary bitmap") {
    val bm = org.roaringbitmap.RoaringBitmap.bitmapOf(0, 3, 7, 100000)
    val back = BSICodec.deserialize(BSICodec.serialize(BSI.fromBitmap(bm)))
    assert(bitmapToSet(back.existence) == Set(0, 3, 7, 100000))
    assert(back.numSlices == 1)
  }

  test("java serialization round-trips a BSI (aggregation buffers)") {
    val b = toBsi(random(3, 500, 5000, 1L << 16))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(b)
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[BSI]
    assert(back == b)
    assert(back.count == b.count) // existence cache rebuilds after deserialization
  }

  test("builder put sums repeated positions") {
    val b = new BSIBuilder
    b.put(1, 5L).put(2, 7L)
    b.put(1, 3L)   // 5 + 3
    b.put(3, 11L)
    val r = b.result()
    assert(bsiToRef(r) == Map(1 -> 8L, 2 -> 7L, 3 -> 11L))
    assert(bsiToRef(BSI.fromPairs(Seq(1 -> 5L, 1 -> 2L))) == Map(1 -> 7L))
    assert(bsiToRef(BSI.fromPairs(Seq(1 -> 5L, 1 -> 3L))) == Map(1 -> 8L)) // not 5 | 3 = 7
  }

  test("builder put with zero is a no-op") {
    val b = new BSIBuilder
    b.put(1, 5L).put(1, 0L).put(9, 0L)
    assert(bsiToRef(b.result()) == Map(1 -> 5L))
  }

  test("builder slices are byte-identical to bitmapOf + runOptimize slices") {
    val shapes = Seq(random(81, 400, 70000, 1L), random(82, 3000, 1 << 20, 1L << 30),
                     (0 until 200000).map(p => p -> (p / 1000 % 5 + 1L)).toMap, // run containers
                     (0 until 70000).map(p => p * 3 -> (p % 7 + 1L)).toMap)     // bitmap containers
    for (r <- shapes) {
      val top = 64 - java.lang.Long.numberOfLeadingZeros(r.values.max)
      val bos = new java.io.ByteArrayOutputStream()
      val out = new java.io.DataOutputStream(bos)
      out.writeInt(top)
      for (i <- 0 until top) {
        val bm = RoaringBitmap.bitmapOf(r.collect { case (p, v) if (v >> i & 1L) == 1L => p }.toSeq.sorted: _*)
        bm.runOptimize()
        bm.serialize(out)
      }
      out.flush()
      assert(BSICodec.serialize(toBsi(r)).sameElements(bos.toByteArray), s"${toBsi(r)}")
    }
  }

  test("builder merge sums colliding positions, unions disjoint ones") {
    val a = new BSIBuilder
    a.put(1, 5L).put(2, 6L)
    val b = new BSIBuilder
    b.put(2, 10L).put(3, 1L)
    a.merge(b)
    assert(bsiToRef(a.result()) == Map(1 -> 5L, 2 -> 16L, 3 -> 1L))
  }

  test("builder merge with disjoint positions equals fromPairs of the union") {
    val r1 = random(71, 300, 2000, 1000L).view.filterKeys(_ % 2 == 0).toMap
    val r2 = random(72, 300, 2000, 1000L).view.filterKeys(_ % 2 == 1).toMap
    val a = new BSIBuilder
    r1.foreach { case (p, v) => a.put(p, v) }
    val b = new BSIBuilder
    r2.foreach { case (p, v) => b.put(p, v) }
    assert(bsiToRef(a.merge(b).result()) == r1 ++ r2)
  }

  test("builder java-serializes (Spark shuffle path)") {
    val b = new BSIBuilder
    b.put(5, 123L).put(9, 7L)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(b)
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[BSIBuilder]
    back.put(5, 1L)
    assert(bsiToRef(back.result()) == Map(5 -> 124L, 9 -> 7L))
  }

  test("serialized size tracks compression: dense small values beat sparse big ones") {
    val dense  = toBsi((0 until 4096).map(p => p -> 1L).toMap)
    val sparse = toBsi((0 until 4096).map(p => p * 1000 -> (1L << 30 | p.toLong)).toMap)
    assert(BSICodec.serialize(dense).length < BSICodec.serialize(sparse).length)
  }
}
