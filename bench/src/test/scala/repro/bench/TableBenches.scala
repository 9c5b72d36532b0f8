package repro.bench

import repro.SparkSpec
import repro.eval._

/** Benchmark suites, one per evaluation-section table. Each prints the paper's
  * numbers next to the measured ones (the printed blocks are what
  * EXPERIMENTS.md records) and asserts the paper's *shape*: which format wins
  * and roughly how the metrics rank — absolute numbers differ because the
  * substrate is a scaled-down local simulation.
  *
  * Scales are chosen so `sbt bench/test` completes in minutes; the jobs/
  * entrypoints run the same evaluators at larger sizes.
  */
class Table3Bench extends SparkSpec {
  test("Table 3: value-range-cardinality histogram of the 105 core metrics") {
    val r = Table3Eval.run(spark, nUsers = 30000L)
    println("\n=== Table 3 ===")
    println(r.rendered)
    // the spec histogram must match the paper bin-for-bin
    assert(r.specCounts == Seq(33, 4, 26, 18, 12, 5, 5, 2))
    // observed cardinalities can only shrink (user count truncates wide bins),
    // so mass moves left: no bin beyond its spec + upstream spillover
    assert(r.observedCounts.sum == 105)
    assert(r.observedCounts.take(4).sum >= Seq(33, 4, 26, 18).sum)
  }
}

class Table4Bench extends SparkSpec {
  test("Table 4: storage of 105 core metrics over 29 days, normal vs BSI") {
    val r = Table4Eval.run(spark, nUsers = 30000L, nSegments = 16)
    println("\n=== Table 4 ===")
    println(r.rendered)
    // paper shape: BSI rows are ~5 orders fewer; here bounded by the key grid
    assert(r.bsi.rows == 105L * 29 * 16)
    assert(r.normal.rows > r.bsi.rows * 100)
    // BSI original is much smaller than normal original (paper: 1.7 vs 15.6 TB)
    assert(r.bsi.original < r.normal.original / 3)
    // BSI compressed is smaller than normal compressed (paper: 1.6 vs 4.1 TB)
    assert(r.bsi.compressed < r.normal.compressed)
    // BSI is already compressed: LZ4 gains little (paper: 1.6 vs 1.7 TB)
    assert(r.bsi.original < r.bsi.compressed * 2,
      s"BSI should not compress much further: ${r.bsi.original} vs ${r.bsi.compressed}")
  }
}

class Table56Bench extends SparkSpec {
  test("Tables 5 & 6: typical metrics and single-core two-day sums") {
    val r = Table56Eval.run(scale = 0.5)
    println("\n=== Table 5 ===")
    println(r.table5)
    println("\n=== Table 6 ===")
    println(r.table6)
    val byName = r.metrics.map(m => m.metric.name -> m).toMap
    // BSI wins on every metric (paper: 98.7x / 5.6x / 9.0x)
    r.metrics.foreach { m =>
      assert(m.bsiSec < m.normalSec,
        s"metric ${m.metric.name}: BSI ${m.bsiSec}s !< normal ${m.normalSec}s")
    }
    // the binary metric A gains the most (paper's headline 100x case)
    val speedup = (n: String) => byName(n).normalSec / byName(n).bsiSec
    assert(speedup("A") > speedup("B"))
    // C is the biggest dataset → slowest absolute BSI time, as in the paper
    assert(byName("C").bsiSec > byName("A").bsiSec)
  }
}

class Table7Bench extends SparkSpec {
  test("Table 7: scorecard pre-computation CPU, normal vs BSI") {
    val r = Table7Eval.run(spark, nUsers = 200000L, nSegments = 16,
      nExperiments = 8, nMetrics = 30)
    println("\n=== Table 7 ===")
    println(s"strategy-metric pairs: ${r.pairs}; result rows: normal=${r.normalRows} bsi=${r.bsiRows}")
    println(r.rendered)
    assert(r.normalRows == r.bsiRows, "both pipelines must emit the same grid")
    // paper shape: BSI uses ~4x less CPU; require a clear win
    assert(r.bsiCpuSec < r.normalCpuSec / 1.5,
      s"BSI ${r.bsiCpuSec}s should be well under normal ${r.normalCpuSec}s")
  }
}

class Table8Bench extends SparkSpec {
  test("Table 8: ad-hoc latency on 105 metrics, 3 strategies, one week") {
    // ~100k users per segment keeps Roaring slices in bitmap containers —
    // the word-parallel regime the paper's ClickHouse nodes operate in
    val r = Table8Eval.run(nUsers = 800000L, nSegments = 8)
    println("\n=== Table 8 ===")
    println(s"result cells: ${r.cells}")
    println(r.rendered)
    assert(r.cells == 3 * 105 * 7)
    // paper shape: BSI ~3.7x lower latency; require a clear win
    assert(r.bsiSec < r.normalSec / 1.5,
      s"BSI ${r.bsiSec}s should be well under normal ${r.normalSec}s")
  }
}
