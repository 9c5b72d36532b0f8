package repro.eval

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.expgen.ExperimentGen

/** Table 3 — value-range-cardinality distribution of the 105 core metrics in
  * one day. The 105 synthetic specs are drawn to the paper's histogram; this
  * evaluator measures the cardinalities actually observed in a generated day
  * (truncated by the scaled-down user count for the widest bins) next to the
  * spec-level histogram, which matches the paper's row-for-row.
  */
object Table3Eval {

  val PaperCounts: Seq[(String, Int)] = Seq(
    "(0, 10]" -> 33, "(10, 100]" -> 4, "(10^2, 10^3]" -> 26, "(10^3, 10^4]" -> 18,
    "(10^4, 10^5]" -> 12, "(10^5, 10^6]" -> 5, "(10^6, 10^7]" -> 5, "(10^7, 10^8]" -> 2)

  private val binEdges = Seq(10L, 100L, 1000L, 10000L, 100000L, 1000000L, 10000000L, 100000000L)

  private def binOf(card: Long): Int = binEdges.indexWhere(card <= _)

  final case class Result(specCounts: Seq[Int], observedCounts: Seq[Int], rendered: String)

  def run(spark: SparkSession, nUsers: Long): Result = {
    val specs = ExperimentGen.coreMetricSpecs
    val observed = ExperimentGen.metricLog(spark, nUsers, specs, Seq(1))
      .groupBy("metric_id")
      .agg(countDistinct(col("value")).as("card"))
      .collect()
      .map(r => binOf(r.getLong(1)))
    val observedCounts = (0 until binEdges.size).map(b => observed.count(_ == b))
    val specCounts     = (0 until binEdges.size).map(b => specs.count(s => binOf(s.rangeCard) == b))
    val rows = PaperCounts.zipWithIndex.map { case ((label, paper), i) =>
      Seq(label, paper.toString, specCounts(i).toString, observedCounts(i).toString)
    }
    val rendered = Measure.renderTable(
      Seq("Range Card (One Day)", "Paper #Metrics", "Spec #Metrics", s"Observed #Metrics (n=$nUsers)"),
      rows)
    Result(specCounts, observedCounts, rendered)
  }
}
