package repro.expgen

import org.apache.spark.sql.functions._

import repro.SparkSpec

/** Properties of the synthetic experiment data generator. */
class ExperimentGenSpec extends SparkSpec {

  test("coreMetricSpecs reproduce Table 3's histogram exactly") {
    val specs = ExperimentGen.coreMetricSpecs
    assert(specs.size == 105)
    val edges = Seq(10L, 100L, 1000L, 10000L, 100000L, 1000000L, 10000000L, 100000000L)
    val counts = edges.zipWithIndex.map { case (hi, i) =>
      val lo = if (i == 0) 0L else edges(i - 1)
      specs.count(s => s.rangeCard > lo && s.rangeCard <= hi)
    }
    assert(counts == Seq(33, 4, 26, 18, 12, 5, 5, 2))
    assert(specs.map(_.metricId).distinct.size == 105)
  }

  test("generation is deterministic: same call twice gives identical rows") {
    val a = ExperimentGen.metricLog(spark, 500, ExperimentGen.smallMetricSpecs(2), Seq(1, 2))
      .collect().map(_.toString).sorted.toSeq
    val b = ExperimentGen.metricLog(spark, 500, ExperimentGen.smallMetricSpecs(2), Seq(1, 2))
      .collect().map(_.toString).sorted.toSeq
    assert(a == b)
  }

  test("metric values stay within (0, rangeCard]") {
    val specs = ExperimentGen.smallMetricSpecs(4)
    val byMetric = ExperimentGen.metricLog(spark, 2000, specs, Seq(1))
      .groupBy("metric_id").agg(min("value").as("mn"), max("value").as("mx"))
      .collect().map(r => r.getAs[Int]("metric_id") -> (r.getAs[Long]("mn"), r.getAs[Long]("mx")))
      .toMap
    specs.foreach { s =>
      val (mn, mx) = byMetric(s.metricId)
      assert(mn >= 1L, s"metric ${s.metricId}")
      assert(mx <= s.rangeCard, s"metric ${s.metricId}")
    }
  }

  test("metric values concentrate near the low end (Pareto-like, Fig. 5)") {
    val spec = ExperimentGen.MetricSpec(1, 10000L, 500000L)
    val vals = ExperimentGen.metricLog(spark, 5000, Seq(spec), Seq(1))
      .select("value").collect().map(_.getLong(0))
    val median = vals.sorted.apply(vals.length / 2)
    assert(median < spec.rangeCard / 10, s"median $median not concentrated near 0")
  }

  test("one metric row per (unit, metric, date)") {
    val ml = ExperimentGen.metricLog(spark, 1000, ExperimentGen.smallMetricSpecs(3), Seq(1, 2))
    assert(ml.columns.toSeq == Seq("date", "metric_id", "unit_id", "value"))
    assert(ml.count() == ml.select("unit_id", "metric_id", "date").distinct().count())
  }

  test("expose: strategies of one experiment get disjoint user sets") {
    val strategies = ExperimentGen.twoArmStrategies(1, 500000L, 1, 5)
    val el = ExperimentGen.exposeLog(spark, 3000, strategies, 8)
    assert(el.columns.toSeq == Seq("strategy_id", "unit_id", "first_expose_date", "bucket_id"))
    val byStrategy = el.collect().groupBy(_.getAs[Long]("strategy_id"))
      .view.mapValues(_.map(_.getAs[Long]("unit_id")).toSet).toMap
    val arms = strategies.map(_.strategyId)
    assert(byStrategy(arms(0)).intersect(byStrategy(arms(1))).isEmpty)
    // ~50/50 split of ~50% traffic
    val sizes = arms.map(byStrategy(_).size)
    assert(sizes.forall(s => s > 500 && s < 1000), s"arm sizes $sizes")
  }

  test("expose: first-expose dates are geometric — most users exposed early") {
    val strategies = ExperimentGen.twoArmStrategies(1, 800000L, startDate = 3, nDays = 6)
    val el = ExperimentGen.exposeLog(spark, 4000, strategies, 8)
    val byDate = el.groupBy("first_expose_date").count().collect()
      .map(r => r.getAs[Int]("first_expose_date") -> r.getAs[Long]("count")).toMap
    assert(byDate.keySet.min == 3 && byDate.keySet.max <= 8)
    assert(byDate(3) > byDate(4), "day 1 of rollout should dominate")
    assert(byDate(3).toDouble / byDate.values.sum > 0.4)
  }

  test("expose: bucket ids are 1-based and roughly balanced") {
    val el = ExperimentGen.exposeLog(spark, 3000,
      ExperimentGen.twoArmStrategies(1, 900000L, 1, 3), nBuckets = 8)
    val buckets = el.groupBy("bucket_id").count().collect()
      .map(r => r.getAs[Int]("bucket_id") -> r.getAs[Long]("count")).toMap
    assert(buckets.keySet == (1 to 8).toSet)
    val avg = buckets.values.sum.toDouble / 8
    buckets.values.foreach(c => assert(math.abs(c - avg) / avg < 0.3, s"unbalanced: $buckets"))
  }

  test("dimension log covers every user for both dimensions with values in range") {
    val dl = ExperimentGen.dimensionLog(spark, 500, Seq(1))
    assert(dl.columns.toSeq == Seq("date", "dim_name", "unit_id", "value"))
    assert(dl.count() == 1000)
    val ct = dl.where(col("dim_name") === "client-type")
      .agg(min("value"), max("value")).collect().head
    assert(ct.getLong(0) >= 1 && ct.getLong(1) <= 3)
    val cv = dl.where(col("dim_name") === "client-version")
      .agg(min("value"), max("value")).collect().head
    assert(cv.getLong(0) >= 100 && cv.getLong(1) <= 140)
  }

  test("segments are balanced and stable under the dictionary hash") {
    val dict = ExperimentGen.dictionary(spark, 4000, 16)
    assert(dict.count() == 4000L)
    assert(dict.agg(min("pos")).collect().head.getInt(0) == 0)
    val counts = dict.groupBy("segment_id").count().collect().map(_.getLong(1))
    assert(counts.length == 16)
    val avg = counts.sum.toDouble / 16
    counts.foreach(c => assert(math.abs(c - avg) / avg < 0.3))
  }

  test("participation scales with engagement (frequent users have more rows)") {
    val spec = ExperimentGen.MetricSpec(1, 100L, 300000L)
    val ml = ExperimentGen.metricLog(spark, 4000, Seq(spec), Seq(1, 2, 3, 4))
    val rows = ml.groupBy("unit_id").count().collect()
      .map(r => r.getAs[Long]("unit_id") -> r.getAs[Long]("count")).toMap
    val lowIds  = (1L to 1000L).map(rows.getOrElse(_, 0L)).sum  // high engagement
    val highIds = (3001L to 4000L).map(rows.getOrElse(_, 0L)).sum // low engagement
    assert(lowIds > highIds * 2, s"engagement bias missing: $lowIds vs $highIds")
  }
}
