package repro.eval

import net.jpountz.lz4.LZ4Factory
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.BsiConvert
import repro.expgen.ExperimentGen

/** Table 4 — storage of the 105 core metrics over a month (29 days), normal
  * format vs BSI format: row counts, LZ4-compressed size, original size.
  *
  * Normal format uses the paper's schema `(segment-id UInt16, date UInt32,
  * metric-id UInt32, user-id UInt32, value UInt32)` = 18 bytes/row; the LZ4
  * size compresses large column-major blocks (ClickHouse-style). The BSI
  * format is `(segment-id UInt16, date UInt32, metric-id UInt32, value BSI)`;
  * its original size is the serialized BSI plus the 10-byte key, and its LZ4
  * size compresses the same bytes — the paper's point being that BSI is
  * already compressed, so the two are close.
  */
object Table4Eval {

  final case class FormatStats(rows: Long, compressed: Long, original: Long)
  final case class Result(normal: FormatStats, bsi: FormatStats, rendered: String)

  private def lz4Size(buf: Array[Byte], len: Int): Int =
    LZ4Factory.fastestInstance().fastCompressor().compress(buf, 0, len).length

  def run(spark: SparkSession, nUsers: Long, nSegments: Int): Result = {
    import spark.implicits._
    repro.core.BsiUdfs.register(spark)

    val specs = ExperimentGen.coreMetricSpecs
    val dates = 1 to 29
    val dict  = ExperimentGen.dictionary(spark, nUsers, nSegments).cache()
    val mlRaw = ExperimentGen.metricLog(spark, nUsers, specs, dates).cache()
    val ml    = mlRaw.join(dict.select("unit_id", "segment_id"), "unit_id")

    // ---- normal format: column-major fixed-width blocks, LZ4 per column chunk
    val normal = ml
      .select($"segment_id".cast("int"), $"date".cast("int"), $"metric_id".cast("int"),
              $"unit_id".cast("long"), $"value".cast("long"))
      .as[(Int, Int, Int, Long, Long)]
      .repartition(col("metric_id"))
      .sortWithinPartitions("metric_id", "date", "segment_id", "unit_id")
      .mapPartitions { it =>
        val chunk = 1 << 20 // rows per compression block
        val segB  = new Array[Byte](2 * chunk)
        val dateB = new Array[Byte](4 * chunk)
        val metB  = new Array[Byte](4 * chunk)
        val userB = new Array[Byte](4 * chunk)
        val valB  = new Array[Byte](4 * chunk)
        def putShort(b: Array[Byte], i: Int, v: Int): Unit = {
          b(2 * i) = (v >> 8).toByte; b(2 * i + 1) = v.toByte
        }
        def putInt(b: Array[Byte], i: Int, v: Int): Unit = {
          b(4 * i) = (v >> 24).toByte; b(4 * i + 1) = (v >> 16).toByte
          b(4 * i + 2) = (v >> 8).toByte; b(4 * i + 3) = v.toByte
        }
        var n = 0
        var rows = 0L
        var compressed = 0L
        def flush(): Unit = if (n > 0) {
          compressed += lz4Size(segB, 2 * n) + lz4Size(dateB, 4 * n) + lz4Size(metB, 4 * n) +
                        lz4Size(userB, 4 * n) + lz4Size(valB, 4 * n)
          n = 0
        }
        it.foreach { case (seg, d, m, u, v) =>
          putShort(segB, n, seg); putInt(dateB, n, d); putInt(metB, n, m)
          putInt(userB, n, u.toInt); putInt(valB, n, v.toInt)
          n += 1; rows += 1
          if (n == chunk) flush()
        }
        flush()
        Iterator.single((rows, compressed))
      }
      .collect()
      .foldLeft((0L, 0L)) { case ((r, c), (r2, c2)) => (r + r2, c + c2) }
    val normalStats = FormatStats(normal._1, normal._2, normal._1 * 18L)

    // ---- BSI format: serialized BSI bytes (+ 10-byte key), LZ4 of the same
    val bsiDf = BsiConvert.metricLogToBsi(mlRaw, dict)
    val bsi = bsiDf
      .select($"value_bsi".as[Array[Byte]])
      .mapPartitions { it =>
        var rows = 0L; var orig = 0L; var comp = 0L
        it.foreach { bytes =>
          rows += 1
          orig += bytes.length + 10L
          comp += lz4Size(bytes, bytes.length) + 10L
        }
        Iterator.single((rows, orig, comp))
      }
      .collect()
      .foldLeft((0L, 0L, 0L)) { case ((r, o, c), (r2, o2, c2)) => (r + r2, o + o2, c + c2) }
    val bsiStats = FormatStats(bsi._1, bsi._3, bsi._2)

    dict.unpersist(); mlRaw.unpersist()

    val rendered = Measure.renderTable(
      Seq("Format", "Rows", "Compressed Size(LZ4)", "Original Size"),
      Seq(
        Seq("Normal (paper)", "890 billion", "4.1 TB", "15.6 TB"),
        Seq("BSI (paper)", "3.1 million", "1.6 TB", "1.7 TB"),
        Seq("Normal (ours)", normalStats.rows.toString,
            Measure.fmtBytes(normalStats.compressed), Measure.fmtBytes(normalStats.original)),
        Seq("BSI (ours)", bsiStats.rows.toString,
            Measure.fmtBytes(bsiStats.compressed), Measure.fmtBytes(bsiStats.original))))
    Result(normalStats, bsiStats, rendered)
  }
}
