package metricbench

import repro.bsi.{BSI, BSICodec}

/** Shape of a set of BSIs, read from outside through RoaringBitmap's public
  * container iteration: slices, cardinality, the array/bitmap/run container
  * mix and the codec's serialized bytes.
  */
final case class Shape(bsis: Long, slices: Long, cardinality: Long, arrayContainers: Long,
                       bitmapContainers: Long, runContainers: Long, codecBytes: Long) {
  private def containers = math.max(1L, arrayContainers + bitmapContainers + runContainers)
  private def n = math.max(1L, bsis).toDouble

  def metrics(prefix: String): Map[String, Double] = Map(
    s"$prefix.slices_mean"               -> slices / n,
    s"$prefix.cardinality_mean"          -> cardinality / n,
    s"$prefix.bytes"                     -> codecBytes.toDouble,
    s"$prefix.containers.array_share"    -> arrayContainers.toDouble / containers,
    s"$prefix.containers.bitmap_share"   -> bitmapContainers.toDouble / containers,
    s"$prefix.containers.run_share"      -> runContainers.toDouble / containers)
}

object Shape {
  def of(bsis: Iterable[BSI]): Shape = {
    var n, slices, card, arr, bmp, run, bytes = 0L
    bsis.foreach { b =>
      n += 1
      slices += b.numSlices
      card += b.count
      bytes += BSICodec.serialize(b).length
      var i = 0
      while (i < b.numSlices) {
        val cp = b.slice(i).getContainerPointer
        while (cp.getContainer != null) {
          if (cp.isBitmapContainer) bmp += 1 else if (cp.isRunContainer) run += 1 else arr += 1
          cp.advance()
        }
        i += 1
      }
    }
    Shape(n, slices, card, arr, bmp, run, bytes)
  }
}
