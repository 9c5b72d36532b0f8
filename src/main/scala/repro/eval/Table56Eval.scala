package repro.eval

import repro.bsi.{BSI, BSIBuilder}
import repro.expgen.ExperimentGen.{mix, paretoValue, u01}

/** Tables 5 & 6 — the three "typical metrics" A/B/C and the single-core
  * two-day-sum comparison, normal format vs BSI format.
  *
  * Scaled ~1:100 from the paper: A has a tiny value range (0,1] and many rows,
  * B a modest range and few rows, C a big range (0,21600] and the most rows.
  * Table 6's task is the paper's: "calculate the sum of metric values for each
  * user in two days" — a hash aggregation by user id on the normal format vs a
  * single `sumBSI` (BSI addition) on the BSI format, one thread, JIT-warmed.
  */
object Table56Eval {

  /** A typical metric: `nRows` of `universe` positions hold a value in
    * (0, rangeCard].
    */
  final case class TypicalMetric(name: String, nRows: Int, universe: Int, rangeCard: Int)

  val A: TypicalMetric = TypicalMetric("A", 3160000, 8000000, 1)
  val B: TypicalMetric = TypicalMetric("B", 340000, 8000000, 50)
  val C: TypicalMetric = TypicalMetric("C", 5100000, 8000000, 21600)

  /** One generated day: parallel position/value arrays (position-sorted) —
    * the "normal format" columns — deterministic in (metric, day).
    */
  final case class Day(positions: Array[Int], values: Array[Long])

  def generate(m: TypicalMetric, day: Int): Day = {
    val keep = m.nRows.toDouble / m.universe
    val pos  = new scala.collection.mutable.ArrayBuilder.ofInt
    val vals = new scala.collection.mutable.ArrayBuilder.ofLong
    pos.sizeHint(m.nRows + m.nRows / 16)
    vals.sizeHint(m.nRows + m.nRows / 16)
    var p = 0
    while (p < m.universe) {
      val key = p.toLong * 31 + day * 1000003L + m.rangeCard
      if (u01(key) < keep) {
        val v = paretoValue(m.rangeCard, u01(mix(key)).min(0.999999))
        pos += p
        vals += v
      }
      p += 1
    }
    Day(pos.result(), vals.result())
  }

  def toBsi(d: Day): BSI = {
    val b = new BSIBuilder
    var i = 0
    while (i < d.positions.length) { b.put(d.positions(i), d.values(i)); i += 1 }
    b.result()
  }

  /** Open-addressing long→long hash aggregation of two normal-format days —
    * the baseline engine's "aggregate by user-id". Returns the map size so the
    * JIT cannot drop the work.
    */
  def normalSumTwoDays(d1: Day, d2: Day): Int = {
    val expected = d1.positions.length + d2.positions.length
    val cap  = Integer.highestOneBit(math.max(16, expected * 2) - 1) * 2
    val mask = cap - 1
    val keys = new Array[Int](cap)
    java.util.Arrays.fill(keys, -1)
    val sums = new Array[Long](cap)
    var size = 0
    def addAll(d: Day): Unit = {
      var i = 0
      while (i < d.positions.length) {
        val k = d.positions(i)
        var slot = (mix(k.toLong) & mask).toInt
        while (keys(slot) != -1 && keys(slot) != k) slot = (slot + 1) & mask
        if (keys(slot) == -1) { keys(slot) = k; size += 1 }
        sums(slot) += d.values(i)
        i += 1
      }
    }
    addAll(d1); addAll(d2)
    size
  }

  final case class MetricResult(metric: TypicalMetric, rows: Long, bsiBytes: Long,
                                normalBytes: Long, normalSec: Double, bsiSec: Double)
  final case class Result(metrics: Seq[MetricResult], table5: String, table6: String)

  def run(scale: Double = 1.0): Result = {
    val results = Seq(A, B, C).map { m0 =>
      val m = m0.copy(nRows = (m0.nRows * scale).toInt, universe = (m0.universe * scale).toInt)
      val day1 = generate(m, day = 1)
      val day2 = generate(m, day = 2)
      val b1 = toBsi(day1)
      val b2 = toBsi(day2)
      // consistency guard: both paths must agree on the total
      val bsiTotal = b1.add(b2).sumValues
      val rawTotal = day1.values.sum + day2.values.sum
      require(bsiTotal == rawTotal, s"sum mismatch for ${m.name}: $bsiTotal vs $rawTotal")
      var sink = 0L // prevents dead-code elimination
      val normalSec = Measure.avgSeconds(warmup = 2, reps = 5) { sink += normalSumTwoDays(day1, day2) }
      val bsiSec    = Measure.avgSeconds(warmup = 2, reps = 5) { sink += b1.add(b2).numSlices }
      require(sink != Long.MinValue)
      MetricResult(m, day1.positions.length.toLong + day2.positions.length,
        b1.sizeInBytes + b2.sizeInBytes,
        (day1.positions.length.toLong + day2.positions.length) * 8L, normalSec, bsiSec)
    }
    val paper5 = Seq(
      Seq("A (paper)", "316 million", "140 MB", "(0, 1]"),
      Seq("B (paper)", "34 million", "86 MB", "(0, 50]"),
      Seq("C (paper)", "510 million", "2 GB", "(0, 21600]"))
    val table5 = Measure.renderTable(
      Seq("Metric", "Rows (2 days)", "BSI Size", "Value Range"),
      paper5 ++ results.map(r => Seq(s"${r.metric.name} (ours)", r.rows.toString,
        Measure.fmtBytes(r.bsiBytes), s"(0, ${r.metric.rangeCard}]")))
    val paper6 = Seq(
      Seq("A (paper)", "59.2 s", "0.6 s", "98.7x"),
      Seq("B (paper)", "7.3 s", "1.3 s", "5.6x"),
      Seq("C (paper)", "94.3 s", "10.5 s", "9.0x"))
    val table6 = Measure.renderTable(
      Seq("Metric", "Normal Format", "BSI Format", "Speedup"),
      paper6 ++ results.map(r => Seq(s"${r.metric.name} (ours)", f"${r.normalSec}%.4f s",
        f"${r.bsiSec}%.4f s", f"${r.normalSec / r.bsiSec}%.1fx")))
    Result(results, table5, table6)
  }
}
