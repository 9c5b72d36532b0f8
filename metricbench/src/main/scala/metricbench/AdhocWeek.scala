package metricbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.adhoc.AdhocEngine
import repro.adhoc.AdhocEngine.Cell
import repro.bsi.{BSI, BSIBuilder}
import repro.core.Stats
import repro.expgen.ExperimentGen

/** `adhoc_week`: the Table 8 shape on the in-process ad-hoc engine. One
  * client alternates full-scorecard queries (3 strategies × 105 metrics × 7
  * days) with seeded single-metric drill-downs (1 × 1 × 7).
  *
  * The shards are generated in process, segment-parallel, with the
  * distributions of `ExperimentGen` (Table 3 value ranges, values
  * concentrated near 0, participation falling with position, geometric
  * expose offsets). The generator also sums every cell from the rows it
  * emits, which is the gate's reference; no BSI code is on that path.
  */
object AdhocWeek {
  val Segments        = 8
  val UsersPerSegment = 100000
  val Days            = (1 to 7).toIndexedSeq
  val Strategies      = IndexedSeq(9000L, 9001L, 9002L)
  val Specs           = ExperimentGen.coreMetricSpecs.toIndexedSeq
  val MetricIds       = Specs.map(_.metricId)
  val WarmupSeconds   = 5.0

  def scale: Map[String, Any] = Map("segments" -> Segments, "users_per_segment" -> UsersPerSegment,
    "days" -> Days.size, "strategies" -> Strategies.size, "metrics" -> Specs.size,
    "cells_per_full_query" -> Strategies.size * Specs.size * Days.size)

  private def mix(x: Long): Long = { // splitmix64 finalizer
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  private def u01(x: Long): Double = (mix(x) >>> 11).toDouble / (1L << 53)

  /** Loaded engine plus the generator's own sums: `sums(strategy)(metric)(day)`
    * and `counts(strategy)(day)`, indexed like [[Strategies]], [[Specs]], [[Days]].
    */
  final class Data(val engine: AdhocEngine, val sums: Array[Array[Array[Long]]],
                   val counts: Array[Array[Long]], val values: Map[(Int, Int, Int), BSI],
                   val offsets: Map[(Int, Long), BSI]) {
    def expected(sts: Seq[Long], ms: Seq[Int]): Seq[Cell] =
      for (st <- sts; m <- ms; d <- Days) yield {
        val s = Strategies.indexOf(st); val mi = MetricIds.indexOf(m); val di = Days.indexOf(d)
        Cell(st, m, d, sums(s)(mi)(di), counts(s)(di))
      }
  }

  private final class SegmentOut(val sums: Array[Array[Array[Long]]], val counts: Array[Array[Long]],
                                 val values: Seq[((Int, Int, Int), BSI)], val offsets: Seq[((Int, Long), BSI)])

  private def fillSegment(engine: AdhocEngine, seg: Int, seed: Long): SegmentOut = {
    val nArms = Strategies.size
    val arm = new Array[Int](UsersPerSegment)
    val off = new Array[Int](UsersPerSegment)
    val offsetB = Array.fill(nArms)(new BSIBuilder)
    val counts = Array.ofDim[Long](nArms, Days.size)
    var p = 0
    while (p < UsersPerSegment) {
      val h = mix(seed * 0x9e3779b9L + seg * 1000003L + p)
      if (u01(h) < 0.9) { // ~90% of users are in the experiment
        arm(p) = (mix(h + 1) >>> 33).toInt % nArms
        off(p) = math.min(Days.size, (math.log(1.0 - u01(h + 2)) / math.log(0.5)).toInt + 1)
        offsetB(arm(p)).put(p, off(p).toLong)
        var di = off(p) - 1
        while (di < Days.size) { counts(arm(p))(di) += 1; di += 1 }
      } else arm(p) = -1
      p += 1
    }
    val offsets = Strategies.indices.map { a =>
      val b = offsetB(a).result()
      engine.loadExposeBsi(seg, Strategies(a), Days.head, b)
      (seg, Strategies(a)) -> b
    }
    val sums = Array.ofDim[Long](nArms, Specs.size, Days.size)
    val values = ArrayBuffer.empty[((Int, Int, Int), BSI)]
    for (mi <- Specs.indices; di <- Days.indices) {
      val spec = Specs(mi); val d = Days(di)
      val part = spec.basePartPpm / 1e6
      val b = new BSIBuilder
      var q = 0
      while (q < UsersPerSegment) {
        val h = mix(seed * 31 + seg * 7777777L + spec.metricId * 131071L + d * 8191L + q)
        val engagement = 1.0 - (q + 0.5) / UsersPerSegment
        if (u01(h) < math.min(1.0, 2 * engagement * part)) {
          val u = u01(h + 5)
          val v = math.min(spec.rangeCard, math.max(1L, math.pow(spec.rangeCard.toDouble, u * u * u).toLong))
          b.put(q, v)
          if (arm(q) >= 0 && off(q) <= di + 1) sums(arm(q))(mi)(di) += v
        }
        q += 1
      }
      val bsi = b.result()
      engine.loadMetricBsi(seg, spec.metricId, d, bsi)
      values += (seg, spec.metricId, d) -> bsi
    }
    new SegmentOut(sums, counts, values.toSeq, offsets)
  }

  def generate(seed: Long, threads: Int): Data = {
    val engine = new AdhocEngine(Segments, threads)
    val pool = Executors.newFixedThreadPool(threads)
    val parts = try {
      pool.invokeAll((0 until Segments).map(seg => new Callable[SegmentOut] {
        def call(): SegmentOut = fillSegment(engine, seg, seed)
      }).asJava).asScala.map(_.get()).toSeq
    } finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
    val sums = Array.ofDim[Long](Strategies.size, Specs.size, Days.size)
    val counts = Array.ofDim[Long](Strategies.size, Days.size)
    for (part <- parts; s <- Strategies.indices; di <- Days.indices) {
      counts(s)(di) += part.counts(s)(di)
      for (mi <- Specs.indices) sums(s)(mi)(di) += part.sums(s)(mi)(di)
    }
    new Data(engine, sums, counts, parts.flatMap(_.values).toMap, parts.flatMap(_.offsets).toMap)
  }

  private def check(expected: Seq[Cell])(got: Seq[Cell]): Seq[String] =
    if (got == expected) Nil
    else Gate.diff("cell", expected.map(c => (c.strategyId, c.metricId, c.date) -> c).toMap,
                   got.map(c => (c.strategyId, c.metricId, c.date) -> c).toMap) match {
      case Nil => Seq(s"cells out of order or duplicated (${got.size} vs ${expected.size})")
      case d   => d
    }

  private def corrupt(cells: Seq[Cell]): Seq[Cell] =
    cells.updated(cells.size / 2, cells(cells.size / 2).copy(sum = cells(cells.size / 2).sum + 1))

  final class Samples {
    val full, single, fullCpuMs = ArrayBuffer.empty[Double]
    var cells = 0L
  }

  /** Closed loop for `seconds`, alternating a full query and a drill-down. */
  private def loop(data: Data, seconds: Double, rng: scala.util.Random, gate: Gate, trace: Trace): Samples = {
    val s = new Samples
    val fullExpected = data.expected(Strategies, MetricIds)
    Timing.closedLoop(seconds) { i =>
      if (i % 2 == 0) {
        val cpu0 = Timing.processCpuNs
        val (cells, ms) = trace.span("adhoc.full")(Timing.timedMs(data.engine.queryBsi(Strategies, MetricIds, Days)))
        s.fullCpuMs += (Timing.processCpuNs - cpu0) / 1e6
        s.full += ms
        s.cells += cells.size
        gate.selfTestOnce(cells, corrupt, check(fullExpected))
        gate.record(check(fullExpected)(cells))
      } else {
        val st = Strategies(rng.nextInt(Strategies.size))
        val m  = MetricIds(rng.nextInt(MetricIds.size))
        val (cells, ms) = trace.span("adhoc.single", Map("strategy" -> st, "metric" -> m)) {
          Timing.timedMs(data.engine.queryBsi(Seq(st), Seq(m), Days))
        }
        s.single += ms
        s.cells += cells.size
        gate.record(check(data.expected(Seq(st), Seq(m)))(cells))
      }
    }
    s
  }

  def run(args: Args, threads: Int): Outcome = {
    System.gc()
    val (data, setupMs) = Timing.timedMs(generate(args.seed, threads))
    val heapMb = Timing.heapAfterGcMb()
    val gate = new Gate
    val rng = new scala.util.Random(args.seed)
    val untraced = new Trace(false)
    loop(data, WarmupSeconds, rng, gate, untraced)

    val (s, jvm) = Timing.jvmPerOp(loop(data, args.untracedSeconds, rng, gate, untraced))(s => s.full.size + s.single.size)

    val fullP50 = Timing.median(s.full.toSeq)
    val singleP50 = Timing.median(s.single.toSeq)
    val e2e = Map(
      "setup_s"       -> setupMs / 1e3,
      "heap_mb"       -> heapMb,
      "op_p50_ms"     -> fullP50,
      "work_per_s"    -> s.cells / ((s.full.sum + s.single.sum) / 1e3),
      "cpu_ms_per_op" -> s.fullCpuMs.sum / s.fullCpuMs.size)
    val detail = Map[String, Any](
      "adhoc_full_p50_ms" -> fullP50,
      "adhoc_full_p90_ms" -> Timing.tailOrNone(s.full.toSeq, 0.9),
      "adhoc_single_p50_ms" -> singleP50,
      "adhoc_single_p90_ms" -> Timing.tailOrNone(s.single.toSeq, 0.9),
      "full_queries" -> s.full.size, "single_queries" -> s.single.size)

    val layers =
      if (!args.trace) Map.empty[String, Double]
      else {
        val trace = args.traceRecorder
        val t = trace.span("measure.traced")(loop(data, args.seconds / 2, rng, gate, trace))
        val overhead = Map("trace.overhead_share" -> (Timing.median(t.full.toSeq) / fullP50 - 1),
                           "trace.spans" -> trace.size.toDouble)
        overhead ++ jvm ++ adhocLayers(data, fullP50, singleP50, threads, rng, trace) ++
          Replay.run(sample(data, rng), trace) ++
          Shape.of(data.values.values ++ data.offsets.values).metrics("bsi")
      }
    Outcome(gate, e2e, detail, layers, scale)
  }

  /** Replays the kernel calls of one full query single-threaded, per segment. */
  private def adhocLayers(data: Data, fullP50: Double, singleP50: Double, threads: Int,
                          rng: scala.util.Random, trace: Trace): Map[String, Double] =
    trace.span("replay.adhoc") {
      def kernel(seg: Int, sts: Seq[Long], ms: Seq[Int]): Long = {
        var acc = 0L
        for (st <- sts; d <- Days) {
          val expose = data.offsets((seg, st)).leConst((d - Days.head + 1).toLong)
          acc += expose.getLongCardinality
          for (m <- ms) acc += data.values((seg, m, d)).filteredSum(expose)
        }
        acc
      }
      (0 until Segments).foreach(seg => kernel(seg, Strategies, MetricIds)) // warm-up
      val perSeg = (0 until Segments).map { seg =>
        val rounds = 3
        val (_, ms) = Timing.timedMs((1 to rounds).foreach(_ => kernel(seg, Strategies, MetricIds)))
        ms / rounds
      }
      val picks = (1 to 200).map(_ => (Strategies(rng.nextInt(Strategies.size)), MetricIds(rng.nextInt(MetricIds.size))))
      val (_, singleMs) = Timing.timedMs(picks.foreach { case (st, m) =>
        (0 until Segments).foreach(seg => kernel(seg, Seq(st), Seq(m)))
      })
      val kernelMs = perSeg.sum
      // A drill-down's critical path: its segments spread evenly over the threads.
      val waves = math.ceil(Segments.toDouble / threads)
      Map(
        "adhoc.full.kernel_ms"      -> kernelMs,
        "adhoc.full.busy_share"     -> kernelMs / (fullP50 * threads),
        "adhoc.segment_skew"        -> perSeg.max / Timing.median(perSeg),
        "adhoc.single.overhead_ms"  -> (singleP50 - singleMs / picks.size / Segments * waves))
    }

  private def sample(data: Data, rng: scala.util.Random): Replay.Sample = {
    val cells = (1 to 48).map { _ =>
      val seg = rng.nextInt(Segments); val st = Strategies(rng.nextInt(Strategies.size))
      val m = MetricIds(rng.nextInt(MetricIds.size)); val d = Days(rng.nextInt(Days.size))
      Replay.Cell(data.offsets((seg, st)), (d - Days.head + 1).toLong, data.values((seg, m, d)), None, 0)
    }
    val series = (1 to 16).map { _ =>
      val seg = rng.nextInt(Segments); val m = MetricIds(rng.nextInt(MetricIds.size))
      Days.map(d => data.values((seg, m, d)))
    }
    // segments as bucket replicates: strategy 2 vs strategy 1 per (metric, day)
    val pairs = (1 to 32).map { _ =>
      val m = MetricIds(rng.nextInt(MetricIds.size)); val d = Days(rng.nextInt(Days.size))
      def arm(st: Long) = {
        val rows = (0 until Segments).map { seg =>
          val mask = data.offsets((seg, st)).leConst((d - Days.head + 1).toLong)
          (seg, data.values((seg, m, d)).filteredSum(mask), mask.getLongCardinality)
        }
        Stats.fromRows(rows, Segments, firstBucketId = 0)
      }
      (arm(Strategies(1)), arm(Strategies(0)))
    }
    Replay.Sample(cells, series, pairs)
  }
}
