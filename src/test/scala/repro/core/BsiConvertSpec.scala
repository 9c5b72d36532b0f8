package repro.core

import org.apache.spark.sql.catalyst.expressions.aggregate.{Final, Partial}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanHelper, ExchangeQueryStageExec, QueryStageExec}
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.bsi.BSICodec
import repro.expgen.ExperimentGen

/** Normal → BSI conversion must be lossless: decoding the BSI tables back
  * through the dictionary reproduces the normal-format logs exactly.
  */
class BsiConvertSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val d = TestFixtures.data(spark)

  private def posToUnit: Map[(Int, Int), Long] =
    d.dict.collect().map(r => (r.getAs[Int]("segment_id"), r.getAs[Int]("pos")) ->
      r.getAs[Long]("unit_id")).toMap

  test("dictionary: positions are dense from 0 within each segment") {
    val bySeg = d.dict.collect().groupBy(_.getAs[Int]("segment_id"))
    assert(bySeg.keySet == (0 until TestFixtures.NSegments).toSet)
    bySeg.foreach { case (seg, rows) =>
      val ps = rows.map(_.getAs[Int]("pos")).sorted
      assert(ps.toSeq == (0 until rows.length), s"segment $seg positions not dense")
    }
  }

  test("dictionary: every unit appears exactly once") {
    assert(d.dict.count() == TestFixtures.NUsers)
    assert(d.dict.select("unit_id").distinct().count() == TestFixtures.NUsers)
  }

  test("dictionary orders frequent (low-id) users to small positions") {
    // engagement decreases in unit_id, so within a segment pos must increase with unit_id
    d.dict.collect().groupBy(_.getAs[Int]("segment_id")).foreach { case (seg, rows) =>
      val byPos = rows.sortBy(_.getAs[Int]("pos")).map(_.getAs[Long]("unit_id"))
      assert(byPos.toSeq == byPos.sorted.toSeq, s"segment $seg not engagement-ordered")
    }
  }

  test("metric BSI decodes back to the exact normal metric log") {
    val p2u = posToUnit
    val decoded = d.metricBsi.collect().flatMap { r =>
      val seg = r.getAs[Int]("segment_id")
      BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi")).toPairs.map { case (pos, v) =>
        (r.getAs[Int]("date"), r.getAs[Int]("metric_id"), p2u((seg, pos)), v)
      }
    }.toSet
    val normal = d.metric.collect().map(r =>
      (r.getAs[Int]("date"), r.getAs[Int]("metric_id"), r.getAs[Long]("unit_id"),
       r.getAs[Long]("value"))).toSet
    assert(decoded == normal)
  }

  test("expose BSI: min_expose_date is the strategy-wide minimum and offsets are 1-based") {
    val mins = d.expose.groupBy("strategy_id").agg(min("first_expose_date").as("m"))
      .collect().map(r => r.getAs[Long]("strategy_id") -> r.getAs[Int]("m")).toMap
    d.exposeBsi.collect().foreach { r =>
      val st = r.getAs[Long]("strategy_id")
      assert(r.getAs[Int]("min_expose_date") == mins(st))
      val off = BSICodec.deserialize(r.getAs[Array[Byte]]("offset_bsi"))
      assert(off.minValue >= 1L)
    }
  }

  test("expose BSI decodes back to the exact normal expose log (dates and buckets)") {
    val p2u = posToUnit
    val decoded = d.exposeBsi.collect().flatMap { r =>
      val seg  = r.getAs[Int]("segment_id")
      val st   = r.getAs[Long]("strategy_id")
      val minD = r.getAs[Int]("min_expose_date")
      val off  = BSICodec.deserialize(r.getAs[Array[Byte]]("offset_bsi"))
      val bk   = BSICodec.deserialize(r.getAs[Array[Byte]]("bucket_bsi"))
      off.toPairs.map { case (pos, o) =>
        (st, p2u((seg, pos)), minD + o.toInt - 1, bk.get(pos).toInt)
      }
    }.toSet
    val normal = d.expose.collect().map(r =>
      (r.getAs[Long]("strategy_id"), r.getAs[Long]("unit_id"),
       r.getAs[Int]("first_expose_date"), r.getAs[Int]("bucket_id"))).toSet
    assert(decoded == normal)
  }

  test("dimension BSI decodes back to the normal dimension log") {
    val p2u = posToUnit
    val decoded = d.dimBsi.collect().flatMap { r =>
      val seg = r.getAs[Int]("segment_id")
      BSICodec.deserialize(r.getAs[Array[Byte]]("value_bsi")).toPairs.map { case (pos, v) =>
        (r.getAs[Int]("date"), r.getAs[String]("dim_name"), p2u((seg, pos)), v)
      }
    }.toSet
    val normal = d.dim.collect().map(r =>
      (r.getAs[Int]("date"), r.getAs[String]("dim_name"), r.getAs[Long]("unit_id"),
       r.getAs[Long]("value"))).toSet
    assert(decoded == normal)
  }

  test("expose conversion broadcasts the per-strategy minimum: one sort-merge join, the dictionary's") {
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1")
    // a freshly generated log, so that the plan is not answered from the fixture's cache
    val log = ExperimentGen.exposeLog(spark, TestFixtures.NUsers, TestFixtures.Strategies, TestFixtures.NSegments,
      TestFixtures.Seed)
    val e = BsiConvert.exposeLogToBsi(log, d.dict)
    e.collect()
    val plan = e.queryExecution.executedPlan
    assert(collect(plan) { case j: SortMergeJoinExec => j }.size == 1, plan)
    assert(collect(plan) { case j: BroadcastHashJoinExec => j }.size == 1, plan)
  }

  test("conversion stores BSIs by segment: no exchange inside the bsi_build aggregate") {
    // logs of another seed, so that no cached table of any suite answers the plans
    val seed = TestFixtures.Seed + 1
    val tables = Seq(
      BsiConvert.exposeLogToBsi(ExperimentGen.exposeLog(spark, TestFixtures.NUsers, TestFixtures.Strategies,
        TestFixtures.NSegments, seed), d.dict),
      BsiConvert.metricLogToBsi(ExperimentGen.metricLog(spark, TestFixtures.NUsers, TestFixtures.Specs, Seq(6), seed),
        d.dict),
      BsiConvert.dimensionLogToBsi(ExperimentGen.dimensionLog(spark, TestFixtures.NUsers, Seq(6), seed), d.dict))
    // from the final aggregate down to its partial one, crossing no exchange
    def exchangeAbovePartial(p: SparkPlan): Boolean = p match {
      case a: BaseAggregateExec if a.aggregateExpressions.forall(_.mode == Partial) => false
      case _: Exchange | _: ExchangeQueryStageExec => true
      case q: QueryStageExec => exchangeAbovePartial(q.plan)
      case other => other.children.exists(exchangeAbovePartial)
    }
    for (t <- tables) {
      t.collect()
      val plan = t.queryExecution.executedPlan
      val builds = collect(plan) {
        case a: BaseAggregateExec if a.aggregateExpressions.exists(_.mode == Final) &&
                                     a.output.exists(_.name.endsWith("_bsi")) => a }
      assert(builds.size == 1, plan)
      assert(!exchangeAbovePartial(builds.head.child), plan)
    }
  }

  test("BSI tables have one row per group key") {
    val mKeys = d.metricBsi.select("segment_id", "date", "metric_id").collect()
    assert(mKeys.length == mKeys.distinct.length)
    val eKeys = d.exposeBsi.select("segment_id", "strategy_id").collect()
    assert(eKeys.length == eKeys.distinct.length)
  }
}
