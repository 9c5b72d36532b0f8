package metricbench

import scala.collection.parallel.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.bsi.{BSI, BSICodec}
import repro.core.BsiConvert
import repro.expgen.ExperimentGen

/** `ingest_day`: one day of normal-format logs for the `precompute_day`
  * users, converted through `BsiConvert` into the Table 2 tables: the
  * 105-metric metric log, the expose log and the two-dimension log. Inputs
  * are generated and cached in set-up; only the conversion is timed.
  *
  * The gate's reference is a fingerprint per output BSI computed with plain
  * Spark SQL from the input rows: row count, value sum and Σ position·value.
  * Each converted BSI is decoded and fingerprinted the same way.
  */
object IngestDay {
  val Users      = PrecomputeDay.Users
  val Segments   = PrecomputeDay.Segments
  val Day        = PrecomputeDay.ScoredDay
  val Buckets    = PrecomputeDay.Buckets
  /** Every fourth core metric (27 of 105), so each Table 3 range bin is in
    * the log while a pass stays near 2–3 s on 4 cores and a run holds several.
    */
  val specs      = ExperimentGen.coreMetricSpecs.filter(_.metricId % 4 == 1)
  val strategies = PrecomputeDay.strategies
  val MinPasses  = 4
  /** Pass times keep falling for about ten seconds of conversions, so the
    * warm-up runs for a fixed time rather than a fixed number of passes.
    */
  val WarmupSeconds = 10.0

  def scale: Map[String, Any] = Map("users" -> Users, "segments" -> Segments, "metrics" -> specs.size,
    "strategies" -> strategies.size, "buckets" -> Buckets, "dimensions" -> 2, "day" -> Day)

  /** (count, Σ value, Σ position·value) of one BSI. */
  type Print = (Long, Long, Long)
  type Prints = Map[String, Print]

  final class Data(val cached: Seq[DataFrame], val dict: DataFrame, val metric: DataFrame,
                   val expose: DataFrame, val dims: DataFrame, val rows: Long, val ref: Prints) {
    def drop(): Unit = cached.foreach(_.unpersist(blocking = true))
  }

  private def fingerprint(b: BSI): Print = {
    var weighted = 0L
    var i = 0
    while (i < b.numSlices) {
      var posSum = 0L
      b.slice(i).forEach((p: Int) => posSum += p)
      weighted += posSum << i
      i += 1
    }
    (b.count, b.sumValues, weighted)
  }

  def setup(spark: SparkSession, seed: Long): Data = {
    val dict = ExperimentGen.dictionary(spark, Users, Segments, seed).cache()
    val metric = ExperimentGen.metricLog(spark, Users, specs, Seq(Day), seed).cache()
    val expose = ExperimentGen.exposeLog(spark, Users, strategies, Buckets, seed).cache()
    val dims = ExperimentGen.dimensionLog(spark, Users, Seq(Day), seed).cache()
    val rows = metric.count() + expose.count() + dims.count()

    // Reference: the input rows with their encoded positions, no BSI code.
    // Keys name the output BSI they should match, as in `Converted.bsis`.
    val minDate = expose.groupBy("strategy_id").agg(min("first_expose_date").as("min_expose_date"))
    val ex = expose.join(minDate, "strategy_id")
    def keyed(df: DataFrame, kind: String, k1: String, k2: String, v: org.apache.spark.sql.Column) =
      df.select(lit(kind).as("kind"), col(k1).cast("string").as("k1"), col(k2).cast("string").as("k2"),
                col("unit_id"), v.cast("long").as("v"))
    val ref = keyed(metric, "metric", "date", "metric_id", col("value"))
      .unionByName(keyed(dims, "dim", "date", "dim_name", col("value")))
      .unionByName(keyed(ex, "offset", "strategy_id", "min_expose_date",
                         col("first_expose_date") - col("min_expose_date") + 1))
      .unionByName(keyed(ex, "bucket", "strategy_id", "min_expose_date", col("bucket_id")))
      .join(dict, "unit_id")
      .groupBy("kind", "segment_id", "k1", "k2")
      .agg(count(lit(1)), sum(col("v")), sum(col("pos").cast("long") * col("v")))
      .collect()
      .map(r => s"${r.get(0)}/${r.get(1)}/${r.get(2)}/${r.get(3)}" -> ((r.getLong(4), r.getLong(5), r.getLong(6))))
      .toMap
    new Data(Seq(dict, metric, expose, dims), dict, metric, expose, dims, rows, ref)
  }

  /** The converted tables, as collected rows. */
  final class Converted(val metric: Array[Row], val dims: Array[Row], val expose: Array[Row]) {
    def bytes: Long =
      (metric.map(r => r.getAs[Array[Byte]]("value_bsi").length.toLong).sum +
       dims.map(r => r.getAs[Array[Byte]]("value_bsi").length.toLong).sum +
       expose.map(r => r.getAs[Array[Byte]]("offset_bsi").length.toLong +
                       r.getAs[Array[Byte]]("bucket_bsi").length.toLong).sum)

    /** Every converted BSI by reference key, decoded in parallel. */
    def bsis: Map[String, BSI] = {
      def key(kind: String, r: Row) = s"$kind/${r.get(0)}/${r.get(1)}/${r.get(2)}"
      val encoded = metric.map(r => key("metric", r) -> r.getAs[Array[Byte]]("value_bsi")) ++
        dims.map(r => key("dim", r) -> r.getAs[Array[Byte]]("value_bsi")) ++
        expose.flatMap(r => Seq(key("offset", r) -> r.getAs[Array[Byte]]("offset_bsi"),
                                key("bucket", r) -> r.getAs[Array[Byte]]("bucket_bsi")))
      encoded.toSeq.par.map { case (k, b) => k -> BSICodec.deserialize(b) }.seq.toMap
    }
  }

  private def convert(data: Data): Converted = new Converted(
    BsiConvert.metricLogToBsi(data.metric, data.dict).collect(),
    BsiConvert.dimensionLogToBsi(data.dims, data.dict).collect(),
    BsiConvert.exposeLogToBsi(data.expose, data.dict).collect())

  private def prints(c: Converted): Prints =
    c.bsis.toSeq.par.map { case (k, b) => k -> fingerprint(b) }.seq.toMap

  private def corrupt(p: Prints): Prints = {
    val (k, (n, s, w)) = p.head
    p.updated(k, (n, s + 1, w))
  }

  final class Pass(val wallMs: Double, val cpuNs: Long, val bytes: Long)

  private def pass(data: Data, meter: SparkMeter, phases: Option[SparkPhases], gate: Gate,
                   trace: Trace): Pass = {
    val ((c, totals), ms) = trace.span("ingest.convert")(Timing.timedMs(meter.measure("ingest")(convert(data))))
    phases.foreach(_.add("ingest", ms, totals))
    val p = prints(c)
    gate.selfTestOnce(p, corrupt, (q: Prints) => Gate.diff("bsi", data.ref, q))
    gate.record(Gate.diff("bsi", data.ref, p))
    new Pass(ms, totals.cpuNs.get, c.bytes)
  }

  def run(args: Args, threads: Int): Outcome = {
    val spark = Main.sparkSession(args, threads)
    try runWith(spark, args, threads) finally spark.stop()
  }

  private def runWith(spark: SparkSession, args: Args, threads: Int): Outcome = {
    val trace = args.traceRecorder
    val meter = new SparkMeter(spark, trace)
    System.gc()
    val (data, setupMs) = Timing.timedMs(setup(spark, args.seed))
    val heapMb = Timing.heapAfterGcMb()
    val gate = new Gate
    val untraced = new Trace(false)
    Timing.closedLoop(WarmupSeconds, 2)(_ => pass(data, meter, None, gate, untraced))

    val (passes, jvm) = Timing.jvmPerOp {
      Timing.closedLoop(args.untracedSeconds, MinPasses)(_ => pass(data, meter, None, gate, untraced))
    }(_.size)

    val walls = passes.map(_.wallMs).toSeq
    val e2e = Map(
      "setup_s"       -> setupMs / 1e3,
      "heap_mb"       -> heapMb,
      "op_p50_ms"     -> Timing.median(walls),
      "work_per_s"    -> data.rows * passes.size / (walls.sum / 1e3),
      "cpu_ms_per_op" -> passes.map(_.cpuNs).sum / 1e6 / passes.size)
    val detail = Map[String, Any](
      "ingest_rows_per_s" -> e2e("work_per_s"),
      "bsi_bytes_per_row" -> passes.head.bytes.toDouble / data.rows,
      "rows_per_pass" -> data.rows, "passes" -> passes.size, "pass_ms" -> walls)

    val layers =
      if (!args.trace) Map.empty[String, Double]
      else {
        val phases = new SparkPhases(threads)
        val traced = trace.span("measure.traced") {
          Timing.closedLoop(args.seconds / 2, MinPasses)(_ => pass(data, meter, Some(phases), gate, trace))
        }
        val overhead = Map(
          "trace.overhead_share" -> (Timing.median(traced.map(_.wallMs).toSeq) / e2e("op_p50_ms") - 1),
          "trace.spans" -> trace.size.toDouble)
        val bsis = convert(data).bsis
        overhead ++ jvm ++ phases.metrics ++ Replay.run(replaySample(bsis, args.seed), trace) ++
          Shape.of(bsis.values).metrics("bsi")
      }
    meter.close()
    data.drop()
    Outcome(gate, e2e, detail, layers, scale)
  }

  private def replaySample(bsis: Map[String, BSI], seed: Long): Replay.Sample = {
    val rng = new scala.util.Random(seed)
    val exposeKeys = bsis.keys.filter(_.startsWith("offset/")).toIndexedSeq.sorted
    val cells = (1 to 48).map { _ =>
      val Array(_, seg, st, minDate) = exposeKeys(rng.nextInt(exposeKeys.size)).split('/')
      val m = specs(rng.nextInt(specs.size)).metricId
      Replay.Cell(bsis(s"offset/$seg/$st/$minDate"), (Day - minDate.toInt + 1).toLong,
        bsis.getOrElse(s"metric/$seg/$Day/$m", BSI.empty), Some(bsis(s"bucket/$seg/$st/$minDate")), Buckets)
    }
    Replay.Sample(cells, IndexedSeq.empty, IndexedSeq.empty)
  }
}
