package repro.adhoc

import java.util.concurrent.{Callable, LinkedBlockingQueue, ThreadPoolExecutor, TimeUnit}
import scala.jdk.CollectionConverters._

import org.roaringbitmap.RoaringBitmap
import repro.bsi.BSI
import repro.core.SegmentScorer

/** In-process substitute for the paper's ClickHouse ad-hoc tier (§5.3):
  * each *segment* of data lives in one in-memory "node shard" and queries run
  * segment-parallel on the engine's thread pool, exactly the locality/parallelism
  * structure of Fig. 8. Both §6.3 methods are implemented:
  *
  *   - BSI method: each shard is scored by [[repro.core.SegmentScorer]], the
  *     Spark scorecards' own cell code, on compressed data;
  *   - normal method: per-day expose *bitmaps* are cached per strategy (the
  *     paper notes ClickHouse joins are slow, so the baseline also avoids a
  *     join); metric rows are scanned columnar and filtered by
  *     `bitmap.contains(pos)`, then hash-free accumulated.
  *
  * Query shape: for (strategies × metrics × dates) return per-(strategy,
  * metric, date) total sum and exposed count (the scorecard numbers a deep
  * dive renders).
  */
final class AdhocEngine(val nSegments: Int, nThreads: Int = Runtime.getRuntime.availableProcessors()) {
  import AdhocEngine.Cell

  /** BSI store: (segment, metric, date) → value BSI. */
  private val metricBsi = new java.util.concurrent.ConcurrentHashMap[(Int, Int, Int), BSI]()
  /** BSI store: (segment, strategy) → min expose date and offset BSI. */
  private val exposeBsi = new java.util.concurrent.ConcurrentHashMap[(Int, Long), SegmentScorer.Expose]()

  /** Normal store: (segment, metric, date) → columnar (positions, values). */
  private val metricRows = new java.util.concurrent.ConcurrentHashMap[(Int, Int, Int), (Array[Int], Array[Long])]()
  /** Normal store: (segment, strategy, date) → bitmap of units exposed by that date. */
  private val exposeBitmaps = new java.util.concurrent.ConcurrentHashMap[(Int, Long, Int), RoaringBitmap]()

  def loadMetricBsi(segment: Int, metricId: Int, date: Int, bsi: BSI): Unit =
    metricBsi.put((segment, metricId, date), bsi)

  def loadExposeBsi(segment: Int, strategyId: Long, minExposeDate: Int, offset: BSI): Unit =
    exposeBsi.put((segment, strategyId), SegmentScorer.Expose(strategyId, minExposeDate, offset, bucket = None))

  def loadMetricRows(segment: Int, metricId: Int, date: Int,
                     positions: Array[Int], values: Array[Long]): Unit =
    metricRows.put((segment, metricId, date), (positions, values))

  /** Derive and cache the per-day expose bitmaps for the normal method from an
    * already-loaded expose BSI (positions with `offset <= date - min + 1`).
    */
  def buildExposeBitmaps(segment: Int, strategyId: Long, dates: Seq[Int]): Unit = {
    val e = exposeBsi.get((segment, strategyId))
    dates.foreach { d =>
      exposeBitmaps.put((segment, strategyId, d), e.offset.leConst((d - e.minExposeDate + 1).toLong))
    }
  }

  /** One task per segment. The threads are daemons and time out when idle, so
    * an engine that is dropped holds no thread and keeps no JVM alive.
    */
  private val pool = new ThreadPoolExecutor(nThreads, nThreads, 10L, TimeUnit.SECONDS,
    new LinkedBlockingQueue[Runnable](), (r: Runnable) => { val t = new Thread(r); t.setDaemon(true); t })
  pool.allowCoreThreadTimeOut(true)

  private def runSegmentParallel[T](f: Int => Seq[T]): Seq[T] = {
    val tasks = (0 until nSegments).map(s => new Callable[Seq[T]] { def call(): Seq[T] = f(s) })
    pool.invokeAll(tasks.asJava).asScala.toSeq.flatMap(_.get())
  }

  /** Totals across segments; a sum or count past `Long.MaxValue` throws. */
  private def mergeCells(parts: Seq[Cell]): Seq[Cell] =
    parts.groupBy(c => (c.strategyId, c.metricId, c.date)).map { case ((st, m, d), cs) =>
      Cell(st, m, d, cs.map(_.sum).reduce(Math.addExact(_, _)), cs.map(_.exposedCnt).reduce(Math.addExact(_, _)))
    }.toSeq.sortBy(c => (c.strategyId, c.metricId, c.date))

  /** §6.3 BSI method. A never-loaded expose BSI fails the query, naming its
    * (segment, strategy); a missing metric shard reads as empty.
    */
  def queryBsi(strategyIds: Seq[Long], metricIds: Seq[Int], dates: Seq[Int]): Seq[Cell] =
    mergeCells(runSegmentParallel { seg =>
      val exposes = strategyIds.map(st => Option(exposeBsi.get((seg, st))).getOrElse(throw new NoSuchElementException(
        s"no expose BSI for segment $seg, strategy $st (call loadExposeBsi first)")))
      SegmentScorer.score(seg, exposes, (m, d) => Option(metricBsi.get((seg, m, d))), metricIds, dates,
                          allExposed = false).map(c => Cell(c.strategyId, c.metricId, c.date, c.sum, c.exposedCnt))
    })

  /** §6.3 normal method: scan the metric rows of each (segment, metric, date)
    * once and test membership in each strategy's cached expose bitmap; a
    * missing bitmap fails the query, naming its (segment, strategy, date).
    */
  def queryNormal(strategyIds: Seq[Long], metricIds: Seq[Int], dates: Seq[Int]): Seq[Cell] =
    mergeCells(runSegmentParallel { seg =>
      val out = Seq.newBuilder[Cell]
      for (d <- dates; m <- metricIds) {
        val (pos, values) = metricRows.getOrDefault((seg, m, d), (Array.empty[Int], Array.empty[Long]))
        for (st <- strategyIds) {
          val bm = exposeBitmaps.get((seg, st, d))
          if (bm == null) throw new NoSuchElementException(
            s"no expose bitmap for segment $seg, strategy $st, date $d (call buildExposeBitmaps first)")
          var sum = 0L
          var i = 0
          while (i < pos.length) {
            if (bm.contains(pos(i))) sum = Math.addExact(sum, values(i))
            i += 1
          }
          out += Cell(st, m, d, sum, bm.getLongCardinality)
        }
      }
      out.result()
    })
}

object AdhocEngine {
  /** One result cell: totals over all segments for a (strategy, metric, date). */
  final case class Cell(strategyId: Long, metricId: Int, date: Int, sum: Long, exposedCnt: Long)
}
