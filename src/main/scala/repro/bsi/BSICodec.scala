package repro.bsi

import java.nio.ByteBuffer
import org.roaringbitmap.RoaringBitmap

/** Serialization of a [[BSI]] to/from `Array[Byte]` — the on-wire format of the
  * encoded `BinaryType` columns that carry BSIs through DataFrames.
  *
  * Layout: `int32 numSlices` (big-endian), then for each slice the portable
  * Roaring serialization (self-delimiting). `null`/empty arrays decode to
  * `BSI.empty` so outer joins and absent groups need no special casing.
  */
object BSICodec {

  /** Serialize; `BSI.empty` encodes as a 4-byte zero header. Each slice is
    * written straight into one buffer sized to the sum of the slices' sizes.
    */
  def serialize(bsi: BSI): Array[Byte] = {
    var size = 4L
    var i = 0
    while (i < bsi.numSlices) { size += bsi.slice(i).serializedSizeInBytes; i += 1 }
    val buf = ByteBuffer.allocate(Math.toIntExact(size))
    buf.putInt(bsi.numSlices)
    i = 0
    while (i < bsi.numSlices) { bsi.slice(i).serialize(buf); i += 1 }
    buf.array
  }

  /** Deserialize; `null` and zero-length input decode to `BSI.empty`. Slices
    * are read from a `ByteBuffer` over `bytes`; a slice count below 0 or above
    * 63, truncated input or trailing bytes throw `IllegalArgumentException`.
    */
  def deserialize(bytes: Array[Byte]): BSI = {
    if (bytes == null || bytes.isEmpty) return BSI.empty
    require(bytes.length >= 4, s"BSI bytes truncated: ${bytes.length} bytes, no slice-count header")
    val buf = ByteBuffer.wrap(bytes)
    val n   = buf.getInt()
    require(n >= 0, s"negative BSI slice count $n")
    require(n <= BSI.MaxSlices, s"BSI slice count $n above ${BSI.MaxSlices}: values are non-negative Longs")
    // a serialized slice takes at least 8 bytes (cookie + container count)
    require(n <= buf.remaining / 8, s"BSI bytes truncated: $n slices cannot fit in ${buf.remaining} bytes")
    val slices = Array.fill(n) {
      val bm = new RoaringBitmap()
      try bm.deserialize(buf.slice()) catch { case e @ (_: java.io.IOException | _: RuntimeException) =>
        throw new IllegalArgumentException(s"BSI bytes truncated or corrupt in one of $n slices", e) }
      buf.position(buf.position() + bm.serializedSizeInBytes)
      bm
    }
    require(!buf.hasRemaining, s"${buf.remaining} trailing bytes after the last of $n BSI slices")
    BSI.fromSlices(slices)
  }
}
