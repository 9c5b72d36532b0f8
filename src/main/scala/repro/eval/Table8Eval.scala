package repro.eval

import scala.collection.parallel.CollectionConverters._

import repro.adhoc.AdhocEngine
import repro.bsi.BSIBuilder
import repro.expgen.ExperimentGen
import repro.expgen.ExperimentGen.{mix, paretoValue, u01}

/** Table 8 — average latency of ad-hoc queries computing the 105 core metrics
  * for an experiment with 3 strategies over one week, BSI method vs normal
  * method, both on the ClickHouse-substitute [[AdhocEngine]] (§5.3, §6.3).
  *
  * Shard data is generated directly into the engine, segment-parallel, with
  * [[ExperimentGen]]'s in-process hash and value draw and the same
  * distributions as its Spark logs (Table 3 value ranges, Pareto-concentrated
  * values, geometric expose offsets). Density matters for
  * fidelity: the paper runs ~200k users per ClickHouse segment, where Roaring
  * slices sit in bitmap containers and operate word-parallel — the per-segment
  * user count here is chosen to stay in that regime.
  */
object Table8Eval {

  final case class Result(bsiSec: Double, normalSec: Double, cells: Int, rendered: String)

  private val Seed = 42L

  /** Populate one segment shard: expose BSIs for the 3 strategies and, per
    * (metric, date), the value BSI plus the normal-format columnar rows.
    */
  private def fillSegment(engine: AdhocEngine, seg: Int, usersPerSegment: Int,
                          specs: Seq[ExperimentGen.MetricSpec], strategyIds: Seq[Long],
                          dates: Seq[Int]): Unit = {
    // expose: ~90% of users in the experiment, uniform arm, geometric offset
    val offsets = strategyIds.map(_ => new BSIBuilder)
    var p = 0
    while (p < usersPerSegment) {
      val h = mix(Seed + seg.toLong * 1000003L + p)
      if (u01(h) < 0.9) {
        val arm = (mix(h + 1) >>> 33).toInt % strategyIds.size
        val off = math.min(dates.size, (math.log(1.0 - u01(h + 2)) / math.log(0.5)).toInt + 1)
        offsets(arm).put(p, off.toLong)
      }
      p += 1
    }
    strategyIds.zipWithIndex.foreach { case (st, a) =>
      engine.loadExposeBsi(seg, st, dates.min, offsets(a).result())
    }
    strategyIds.foreach(st => engine.buildExposeBitmaps(seg, st, dates))

    specs.foreach { spec =>
      dates.foreach { d =>
        val b = new BSIBuilder
        val posB = new scala.collection.mutable.ArrayBuilder.ofInt
        val valB = new scala.collection.mutable.ArrayBuilder.ofLong
        val part = spec.basePartPpm / 1e6
        var p = 0
        while (p < usersPerSegment) {
          val h = mix(Seed * 31 + seg.toLong * 7777777L + spec.metricId * 131071L + d * 8191L + p)
          // participation ∝ engagement (decreasing in position, as encoded)
          val engagement = 1.0 - (p + 0.5) / usersPerSegment
          if (u01(h) < math.min(1.0, 2 * engagement * part)) {
            val v = paretoValue(spec.rangeCard, u01(h + 5))
            b.put(p, v)
            posB += p
            valB += v
          }
          p += 1
        }
        engine.loadMetricBsi(seg, spec.metricId, d, b.result())
        engine.loadMetricRows(seg, spec.metricId, d, posB.result(), valB.result())
      }
    }
  }

  def run(nUsers: Long, nSegments: Int): Result = {
    val specs = ExperimentGen.coreMetricSpecs
    val dates = 1 to 7
    val strategyIds = Seq(9000L, 9001L, 9002L) // one huge 3-arm experiment
    val usersPerSegment = (nUsers / nSegments).toInt

    val engine = new AdhocEngine(nSegments)
    (0 until nSegments).par.foreach(seg => fillSegment(engine, seg, usersPerSegment, specs, strategyIds, dates))

    // correctness guard before timing: both methods must agree cell-for-cell
    val metricIds = specs.map(_.metricId)
    val cb = engine.queryBsi(strategyIds, metricIds, dates)
    val cn = engine.queryNormal(strategyIds, metricIds, dates)
    require(cb == cn, s"ad-hoc methods disagree: ${cb.diff(cn).take(3)} vs ${cn.diff(cb).take(3)}")

    val bsiSec    = Measure.avgSeconds(warmup = 2, reps = 10) { engine.queryBsi(strategyIds, metricIds, dates) }
    val normalSec = Measure.avgSeconds(warmup = 2, reps = 10) { engine.queryNormal(strategyIds, metricIds, dates) }

    val rendered = Measure.renderTable(
      Seq("Format of Representation", "Average Latency", "Ratio"),
      Seq(
        Seq("Normal (paper)", "22.3 seconds", "1.0x"),
        Seq("BSI (paper)", "6.0 seconds", "3.72x less"),
        Seq("Normal (ours)", f"$normalSec%.3f seconds", "1.0x"),
        Seq("BSI (ours)", f"$bsiSec%.3f seconds", f"${normalSec / bsiSec}%.2fx less")))
    Result(bsiSec, normalSec, cb.size, rendered)
  }
}
