package repro.adhoc

import org.scalatest.funsuite.AnyFunSuite
import repro.bsi.RefModel

/** The ClickHouse-substitute ad-hoc engine: both query methods must agree with
  * each other and with a naive in-memory evaluation.
  */
class AdhocEngineSpec extends AnyFunSuite {
  import RefModel._

  private val nSegments = 4
  private val dates = Seq(1, 2, 3)
  private val metrics = Seq(10, 11)
  private val strategies = Seq(100L, 101L)

  /** Build one engine plus the plain-maps ground truth. */
  private def fixture(seed: Int): (AdhocEngine, Map[(Int, Long), (Int, Ref)], Map[(Int, Int, Int), Ref]) = {
    val eng = new AdhocEngine(nSegments, nThreads = 2)
    // expose: per (segment, strategy): minDate=1, offsets 1..3
    val expose = (for (seg <- 0 until nSegments; st <- strategies) yield {
      val offs = random(seed + seg * 10 + st.toInt, 60, 200, 3L) // offsets in 1..3
      eng.loadExposeBsi(seg, st, 1, toBsi(offs))
      (seg, st) -> (1, offs)
    }).toMap
    // metrics: per (segment, metric, date)
    val values = (for (seg <- 0 until nSegments; m <- metrics; d <- dates) yield {
      val v = random(seed * 7 + seg * 100 + m * 10 + d, 80, 200, 50L)
      eng.loadMetricBsi(seg, m, d, toBsi(v))
      val sorted = v.toSeq.sortBy(_._1)
      eng.loadMetricRows(seg, m, d, sorted.map(_._1).toArray, sorted.map(_._2).toArray)
      (seg, m, d) -> v
    }).toMap
    for (seg <- 0 until nSegments; st <- strategies) eng.buildExposeBitmaps(seg, st, dates)
    (eng, expose, values)
  }

  for (seed <- 0 until 3) {
    test(s"queryBsi equals queryNormal equals naive evaluation (seed $seed)") {
      val (eng, expose, values) = fixture(seed)
      val bs = eng.queryBsi(strategies, metrics, dates)
      val nm = eng.queryNormal(strategies, metrics, dates)
      assert(bs == nm)
      // naive ground truth
      val expected = (for (st <- strategies; m <- metrics; d <- dates) yield {
        var sum = 0L; var cnt = 0L
        for (seg <- 0 until nSegments) {
          val (minD, offs) = expose((seg, st))
          val exposed = offs.filter { case (_, off) => minD + off - 1 <= d }.keySet
          cnt += exposed.size
          sum += values((seg, m, d)).collect { case (p, v) if exposed(p) => v }.sum
        }
        AdhocEngine.Cell(st, m, d, sum, cnt)
      }).sortBy(c => (c.strategyId, c.metricId, c.date))
      assert(bs == expected)
    }
  }

  test("missing metric shards yield zero sums but keep exposure counts") {
    val eng = new AdhocEngine(2, nThreads = 1)
    eng.loadExposeBsi(0, 1L, 1, toBsi(Map(0 -> 1L, 1 -> 2L)))
    eng.loadExposeBsi(1, 1L, 1, toBsi(Map(0 -> 1L)))
    // no metric data loaded at all
    val cells = eng.queryBsi(Seq(1L), Seq(99), Seq(2))
    assert(cells.size == 1)
    assert(cells.head.sum == 0L)
    assert(cells.head.exposedCnt == 3L) // all offsets <= 2
  }

  test("expose date filtering: units exposed later are excluded") {
    val eng = new AdhocEngine(1, nThreads = 1)
    eng.loadExposeBsi(0, 5L, 10, toBsi(Map(0 -> 1L, 1 -> 3L))) // expose dates 10 and 12
    eng.loadMetricBsi(0, 7, 11, toBsi(Map(0 -> 100L, 1 -> 200L)))
    val cells = eng.queryBsi(Seq(5L), Seq(7), Seq(11))
    assert(cells.head.sum == 100L) // unit 1 exposed on day 12 > query day 11
    assert(cells.head.exposedCnt == 1L)
  }

  test("cross-segment totals past Long.MaxValue throw instead of wrapping") {
    val eng = new AdhocEngine(2, nThreads = 2)
    for (seg <- 0 until 2) {
      eng.loadExposeBsi(seg, 5L, 1, toBsi(Map(0 -> 1L)))
      eng.loadMetricBsi(seg, 7, 1, toBsi(Map(0 -> (1L << 62))))
      eng.loadMetricRows(seg, 7, 1, Array(0), Array(1L << 62))
      eng.buildExposeBitmaps(seg, 5L, Seq(1))
    }
    intercept[ArithmeticException](eng.queryBsi(Seq(5L), Seq(7), Seq(1)))
    intercept[ArithmeticException](eng.queryNormal(Seq(5L), Seq(7), Seq(1)))
  }

  test("one segment's sum past Long.MaxValue throws in both methods") {
    val eng = new AdhocEngine(1, nThreads = 1)
    eng.loadExposeBsi(0, 5L, 1, toBsi(Map(0 -> 1L, 1 -> 1L)))
    eng.loadMetricBsi(0, 7, 1, toBsi(Map(0 -> (1L << 62), 1 -> (1L << 62))))
    eng.loadMetricRows(0, 7, 1, Array(0, 1), Array(1L << 62, 1L << 62))
    eng.buildExposeBitmaps(0, 5L, Seq(1))
    for (query <- Seq(eng.queryBsi _, eng.queryNormal _)) {
      val e = intercept[java.util.concurrent.ExecutionException](query(Seq(5L), Seq(7), Seq(1)))
      assert(e.getCause.isInstanceOf[ArithmeticException], e)
    }
  }

  test("queryBsi names a missing expose BSI") {
    val eng = new AdhocEngine(2, nThreads = 2)
    eng.loadExposeBsi(0, 5L, 1, toBsi(Map(0 -> 1L))) // nothing loaded for segment 1
    val e = intercept[java.util.concurrent.ExecutionException](eng.queryBsi(Seq(5L), Seq(7), Seq(1)))
    assert(e.getCause.isInstanceOf[NoSuchElementException], e)
    assert(e.getCause.getMessage.contains("segment 1, strategy 5"), e.getMessage)
  }

  test("queryNormal names a missing expose bitmap") {
    val eng = new AdhocEngine(2, nThreads = 2)
    for (seg <- 0 until 2) eng.loadExposeBsi(seg, 5L, 1, toBsi(Map(0 -> 1L, 1 -> 2L)))
    eng.buildExposeBitmaps(0, 5L, Seq(1, 2))
    eng.buildExposeBitmaps(1, 5L, Seq(1)) // no day-2 bitmap in segment 1
    assert(eng.queryNormal(Seq(5L), Seq(7), Seq(1)).head.exposedCnt == 2L)
    val e = intercept[java.util.concurrent.ExecutionException](eng.queryNormal(Seq(5L), Seq(7), Seq(1, 2)))
    assert(e.getCause.isInstanceOf[NoSuchElementException], e)
    assert(e.getCause.getMessage.contains("segment 1, strategy 5, date 2"), e.getMessage)
  }
}
