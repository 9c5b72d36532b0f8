package metricbench

import scala.collection.mutable.ArrayBuffer

/** Correctness gate with failure accounting: every timed operation's result
  * is checked against a reference computed once per run from an independent
  * path, and an operation with any mismatch counts as failed.
  */
final class Gate {
  private var attempted0, failed0 = 0L
  private val examples = ArrayBuffer.empty[String]
  private var selfTest: Option[Boolean] = None

  /** Records one operation; `mismatches` describes every wrong cell. */
  def record(mismatches: Seq[String]): Unit = synchronized {
    attempted0 += 1
    if (mismatches.nonEmpty) {
      failed0 += 1
      if (examples.size < 5) examples += mismatches.head
    }
  }

  /** The gate's self-test: `check` must report the corrupted copy of a
    * correct result. Runs once per run, on the first checked result.
    */
  def selfTestOnce[R](result: R, corrupt: R => R, check: R => Seq[String]): Unit = synchronized {
    if (selfTest.isEmpty) selfTest = Some(check(result).isEmpty && check(corrupt(result)).nonEmpty)
  }

  def attempted: Long = attempted0
  def failed: Long = failed0
  def selfTestPassed: Boolean = selfTest.contains(true)
  def summary: Map[String, Any] = Map(
    "attempted" -> attempted0, "failed" -> failed0,
    "selftest" -> selfTest.map(if (_) "caught" else "missed").getOrElse("not run"),
    "first_mismatches" -> examples.toList)
}

object Gate {
  /** Compares keyed results; reports missing, extra and differing keys. */
  def diff[K, V](what: String, expected: collection.Map[K, V], actual: collection.Map[K, V]): Seq[String] = {
    val out = ArrayBuffer.empty[String]
    expected.foreach { case (k, v) =>
      actual.get(k) match {
        case None                => out += s"$what $k missing"
        case Some(a) if a != v   => out += s"$what $k: expected $v, got $a"
        case _                   =>
      }
    }
    actual.keysIterator.filterNot(expected.contains).foreach(k => out += s"$what $k unexpected")
    out.toSeq
  }

  /** Relative closeness for statistics computed two ways. */
  def close(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    (a.isNaN && b.isNaN) || a == b || math.abs(a - b) <= tol * math.max(math.abs(a), math.abs(b))
}
