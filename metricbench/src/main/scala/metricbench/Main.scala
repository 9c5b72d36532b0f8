package metricbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Command-line arguments of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path) {
  lazy val traceRecorder: Trace = new Trace(trace)
  /** A traced run splits its time between an untraced and a traced loop, so
    * that it can report the tracing overhead.
    */
  def untracedSeconds: Double = if (trace) seconds / 2 else seconds
}

/** What a workload hands back: the gate, the end-to-end metrics, extra
  * figures for the results file, and the per-layer metrics of a traced run.
  */
final case class Outcome(gate: Gate, e2e: Map[String, Double], detail: Map[String, Any],
                         layers: Map[String, Double], scale: Map[String, Any])

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  * Prints one JSON result object as the last line of standard output and
  * writes the full record (and, when traced, the spans) under `--out`.
  */
object Main {

  /** End-to-end metrics: every workload reports each, from its own path. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "heap_mb" -> "MB", "op_p50_ms" -> "ms", "work_per_s" -> "1/s",
    "cpu_ms_per_op" -> "ms")

  private val Phases = Seq("scorecard", "bucketed", "cuped", "ingest")

  /** Per-layer metrics of the traced run. A layer a workload does not run
    * reports 0 there.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "adhoc.full.kernel_ms" -> "ms", "adhoc.full.busy_share" -> "share",
    "adhoc.segment_skew" -> "ratio", "adhoc.single.overhead_ms" -> "ms",
    "bsi.le_const_us" -> "us", "bsi.filtered_sum_us" -> "us", "bsi.multiply_us" -> "us",
    "bsi.eq_const_us" -> "us", "bsi.add_us" -> "us",
    "bsi.slices_mean" -> "count", "bsi.cardinality_mean" -> "count", "bsi.bytes" -> "B",
    "bsi.containers.array_share" -> "share", "bsi.containers.bitmap_share" -> "share",
    "bsi.containers.run_share" -> "share",
    "codec.decode_mb_per_s" -> "MB/s", "codec.encode_mb_per_s" -> "MB/s", "codec.bytes_per_cell" -> "B",
    "builder.put_ns_per_row" -> "ns",
    "udf.chain_us_per_cell" -> "us", "udf.kernel_us_per_cell" -> "us", "udf.decode_share" -> "share",
    "udf.bucket_stats_us_per_cell" -> "us",
    "udaf.buffer_bytes_ratio" -> "ratio", "udaf.buffer_roundtrip_us" -> "us") ++
    Phases.flatMap(p => Seq(
      s"spark.$p.executor_cpu_s" -> "s", s"spark.$p.busy_share" -> "share",
      s"spark.$p.max_task_share" -> "share", s"spark.$p.tasks" -> "count",
      s"spark.$p.stages" -> "count", s"spark.$p.shuffle_read_bytes" -> "B",
      s"spark.$p.shuffle_write_bytes" -> "B", s"spark.$p.spill_bytes" -> "B",
      s"spark.$p.gc_ms" -> "ms")) ++ Seq(
    "preagg.tree_ms" -> "ms", "preagg.direct_ms" -> "ms", "stats.ttest_us_per_pair" -> "us",
    "jvm.gc_ms_per_op" -> "ms", "jvm.alloc_mb_per_op" -> "MB",
    "trace.overhead_share" -> "share", "trace.spans" -> "count")

  val Workloads = Seq("adhoc_week", "precompute_day", "ingest_day")

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    require(Workloads.contains(w), s"unknown workload $w; expected one of ${Workloads.mkString(", ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(w, need("seed").toLong, need("seconds").toDouble, trace == "1", Paths.get(need("out")))
  }

  /** Local Spark sized to the machine, with scratch space under `out`. */
  def sparkSession(args: Args, threads: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName(s"metricbench-${args.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (4 * threads).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.warehouse.dir", args.out.resolve("spark-warehouse").toString)
      .getOrCreate()
    repro.core.BsiUdfs.register(s)
    s
  }

  private def environment(args: Args, threads: Int, scale: Map[String, Any]): Map[String, Any] = Map(
    "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace,
    "git_sha" -> sys.props.getOrElse("metricbench.gitSha", "unknown"),
    "nproc" -> threads,
    "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
    "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toList,
    "java_version" -> sys.props("java.version"),
    "spark_version" -> org.apache.spark.SPARK_VERSION,
    "scale" -> scale)

  def main(argv: Array[String]): Unit = {
    val args = try parse(argv) catch {
      case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2)
    }
    Files.createDirectories(args.out)
    val threads = Runtime.getRuntime.availableProcessors()
    val outcome = args.workload match {
      case "adhoc_week"     => AdhocWeek.run(args, threads)
      case "precompute_day" => PrecomputeDay.run(args, threads)
      case "ingest_day"     => IngestDay.run(args, threads)
    }
    val g = outcome.gate
    val correct = g.failed == 0 && g.attempted > 0 && g.selfTestPassed
    val shown = if (args.trace) PerLayer.map { case (n, u) => (n, u, outcome.layers.getOrElse(n, 0.0)) }
                else EndToEnd.map { case (n, u) => (n, u, outcome.e2e(n)) }
    val metrics = scala.collection.immutable.ListMap(shown.map { case (n, u, v) =>
      n -> scala.collection.immutable.ListMap("value" -> v, "unit" -> u) }: _*)

    val tag = s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val record = scala.collection.immutable.ListMap(
      "environment" -> environment(args, threads, outcome.scale),
      "gate" -> g.summary,
      "end_to_end" -> outcome.e2e,
      "detail" -> outcome.detail,
      "per_layer" -> outcome.layers)
    Files.write(args.out.resolve(s"$tag.json"), Json.write(record).getBytes("UTF-8"))
    if (args.trace) args.traceRecorder.writeTo(args.out.resolve(s"$tag.spans.jsonl"))

    println(Json.write(Map("detail" -> outcome.detail, "gate" -> g.summary)))
    println(Json.write(scala.collection.immutable.ListMap(
      "correct" -> correct, "attempted" -> g.attempted, "failed" -> g.failed, "metrics" -> metrics)))
  }
}
