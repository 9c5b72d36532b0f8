package metricbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import repro.bsi.{BSI, BSIBuilder, BSICodec}
import repro.core.{BsiUdfs, Stats}
import repro.preagg.PreAggTree

/** Per-layer probes for the traced run. Each one calls the program's public
  * functions single-threaded on a sample of the workload's own BSIs or bytes,
  * the way the measured path calls them, and reports the cost per call.
  */
object Replay {

  /** One scorecard cell: the expose filter is `offset <= k`; `bucket` is the
    * cell's bucket BSI when the workload has one.
    */
  final case class Cell(offset: BSI, k: Long, value: BSI, bucket: Option[BSI], nBuckets: Int)

  /** `cells` drive the kernel, codec, UDF and buffer probes; each entry of
    * `series` is `c` consecutive daily BSIs of one (segment, metric), for the
    * pre-aggregate probe; `pairs` are bucketed treatment/control metrics for
    * the t-test probe.
    */
  final case class Sample(cells: IndexedSeq[Cell], series: IndexedSeq[IndexedSeq[BSI]],
                          pairs: IndexedSeq[(Stats.BucketedMetric, Stats.BucketedMetric)])

  private val MinProbeNs = 200L * 1000 * 1000

  /** Results are stored here so that the JIT cannot drop a probed call. */
  @volatile private[metricbench] var sink: Any = null

  /** Mean ns per call of `f(i)` over `n` inputs, repeated until the probe has
    * run for at least [[MinProbeNs]], after one untimed warm-up round.
    */
  private def nsPerCall(n: Int)(f: Int => Any): Double = {
    var i = 0
    while (i < n) { sink = f(i); i += 1 }
    var calls = 0L
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < MinProbeNs || calls == 0) {
      i = 0
      while (i < n) { sink = f(i); i += 1 }
      calls += n
    }
    (System.nanoTime() - t0).toDouble / calls
  }

  private def javaBytes(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bos)
    out.writeObject(o); out.close()
    bos.toByteArray
  }

  private def fromJava(b: Array[Byte]): AnyRef =
    new ObjectInputStream(new ByteArrayInputStream(b)).readObject()

  private def pairsOf(b: BSI): (Array[Int], Array[Long]) = {
    val ps = b.toPairs.toArray
    (ps.map(_._1), ps.map(_._2))
  }

  def run(s: Sample, trace: Trace): Map[String, Double] = trace.span("replay") {
    val cells = s.cells
    val n     = cells.size
    require(n > 0, "replay needs at least one cell")
    def probe(name: String)(body: => Double): (String, Double) = name -> trace.span(s"replay.$name")(body)

    val masks = cells.map(c => c.offset.leConst(c.k))
    val kernels = Map(
      probe("bsi.le_const_us")(nsPerCall(n)(i => cells(i).offset.leConst(cells(i).k)) / 1e3),
      probe("bsi.filtered_sum_us")(nsPerCall(n)(i => cells(i).value.filteredSum(masks(i))) / 1e3),
      probe("bsi.multiply_us")(nsPerCall(n)(i => cells(i).value.multiply(BSI.fromBitmap(masks(i)))) / 1e3),
      probe("bsi.eq_const_us")(nsPerCall(n) { i =>
        val c = cells(i)
        c.bucket.fold(c.offset.eqConst(1L))(_.eqConst(1L + i % c.nBuckets))
      } / 1e3),
      probe("bsi.add_us")(nsPerCall(n)(i => cells(i).value.add(cells((i + 1) % n).value)) / 1e3))

    // codec: every BSI one cell decodes (offset and value)
    val bsis  = cells.flatMap(c => Seq(c.offset, c.value))
    val bytes = bsis.map(BSICodec.serialize)
    val totalMb = bytes.map(_.length.toLong).sum / 1048576.0
    val encNs = nsPerCall(bsis.size)(i => BSICodec.serialize(bsis(i))) * bsis.size
    val decNs = nsPerCall(bytes.size)(i => BSICodec.deserialize(bytes(i))) * bytes.size
    val codec = Map(
      "codec.encode_mb_per_s" -> totalMb / (encNs / 1e9),
      "codec.decode_mb_per_s" -> totalMb / (decNs / 1e9),
      "codec.bytes_per_cell"  -> bytes.map(_.length.toDouble).sum / n)

    val rows = cells.map(c => pairsOf(c.value))
    val rowCount = math.max(1L, rows.map(_._1.length.toLong).sum)
    val builder = probe("builder.put_ns_per_row") {
      nsPerCall(n) { i =>
        val b = new BSIBuilder
        val (ps, vs) = rows(i)
        var j = 0
        while (j < ps.length) { b.put(ps(j), vs(j)); j += 1 }
        b.result()
      } * n / rowCount
    }

    // The scorecard's UDF chain, bsi_cmp_const -> bsi_mul -> bsi_sum, bsi_count,
    // each step decoding its inputs and encoding its output as the UDFs do.
    val offB = cells.map(c => BSICodec.serialize(c.offset))
    val valB = cells.map(c => BSICodec.serialize(c.value))
    def chain(i: Int): Long = {
      val expose   = BSICodec.serialize(BSI.fromBitmap(BSICodec.deserialize(offB(i)).leConst(cells(i).k)))
      val filtered = BSICodec.serialize(BSICodec.deserialize(valB(i)).multiply(BSICodec.deserialize(expose)))
      BSICodec.deserialize(filtered).sumValues + BSICodec.deserialize(expose).count
    }
    val exposeB   = (0 until n).map(i => BSICodec.serialize(BSI.fromBitmap(masks(i))))
    val filteredB = (0 until n).map(i => BSICodec.serialize(cells(i).value.andBinary(masks(i))))
    val chainUs = probe("udf.chain_us_per_cell")(nsPerCall(n)(chain) / 1e3)
    val decodeUs = nsPerCall(n) { i =>
      BSICodec.deserialize(offB(i)); BSICodec.deserialize(valB(i)); BSICodec.deserialize(exposeB(i))
      BSICodec.deserialize(filteredB(i)); BSICodec.deserialize(exposeB(i))
    } / 1e3
    val kernelUs = probe("udf.kernel_us_per_cell")(nsPerCall(n) { i =>
      val m = cells(i).offset.leConst(cells(i).k)
      cells(i).value.multiply(BSI.fromBitmap(m)).sumValues + m.getLongCardinality
    } / 1e3)
    val bucketed = cells.filter(_.bucket.isDefined).take(4)
    val bucketUs = probe("udf.bucket_stats_us_per_cell") {
      if (bucketed.isEmpty) 0.0
      else nsPerCall(bucketed.size) { i =>
        val c = bucketed(i)
        val m = c.offset.leConst(c.k)
        val v = c.value.andBinary(m)
        val bk = c.bucket.get
        var acc = 0L
        var b = 1
        while (b <= c.nBuckets) {
          val posB = bk.eqConst(b.toLong); posB.and(m)
          val cnt = posB.getLongCardinality
          if (cnt > 0) acc += v.andBinary(posB).sumValues + cnt
          b += 1
        }
        acc
      } / 1e3
    }

    // UDAF buffers: bsi_build keeps a BSIBuilder, the combine UDAFs an Acc;
    // both cross shuffles through Java serialization.
    val builders = rows.map { case (ps, vs) =>
      val b = new BSIBuilder; var j = 0
      while (j < ps.length) { b.put(ps(j), vs(j)); j += 1 }
      b
    }
    val builderBytes = builders.map(b => javaBytes(b).length.toLong).sum
    val accBytes = cells.map(c => javaBytes(new BsiUdfs.Acc(c.value, true)).length.toLong).sum
    val valueCodecBytes = math.max(1L, valB.map(_.length.toLong).sum)
    val buffers = Map(
      "udaf.buffer_bytes_ratio" -> (builderBytes + accBytes).toDouble / (2 * valueCodecBytes),
      probe("udaf.buffer_roundtrip_us")(nsPerCall(n)(i => fromJava(javaBytes(builders(i)))) / 1e3))

    val preagg =
      if (s.series.isEmpty) Map("preagg.tree_ms" -> 0.0, "preagg.direct_ms" -> 0.0)
      else {
        val series = s.series
        Map(
          probe("preagg.tree_ms")(nsPerCall(series.size) { i =>
            val days = series(i)
            PreAggTree.sumTree(days).query(0, days.size - 1)
          } / 1e6),
          probe("preagg.direct_ms")(nsPerCall(series.size)(i => series(i).reduce(_ add _)) / 1e6))
      }

    val stats = probe("stats.ttest_us_per_pair") {
      if (s.pairs.isEmpty) 0.0
      else nsPerCall(s.pairs.size) { i => val (t, c) = s.pairs(i); Stats.welchTTest(t, c).pValue } / 1e3
    }

    kernels ++ codec ++ Map(builder, chainUs, kernelUs, bucketUs, stats) ++ buffers ++ preagg ++
      Map("udf.decode_share" -> decodeUs / chainUs._2)
  }
}
