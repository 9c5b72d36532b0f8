package metricbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder. A span is one timed operation, Spark job, stage
  * or task, or replay probe, with the span that caused it as parent. When
  * tracing is off, [[span]] only runs its body, so untraced runs pay nothing.
  * Spans are written out once, at the end of the run.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans   = ArrayBuffer.empty[Span]
  private val nextId  = new java.util.concurrent.atomic.AtomicLong(1L)
  private val current = new ThreadLocal[java.lang.Long] { override def initialValue() = 0L }

  def newId(): Long = nextId.getAndIncrement()

  /** Records `body` as a child of the calling thread's open span. */
  def span[T](name: String, attrs: Map[String, Any] = Map.empty)(body: => T): T =
    if (!enabled) body
    else {
      val id     = newId()
      val parent = current.get().longValue
      current.set(id)
      val t0 = System.nanoTime()
      try body
      finally {
        add(Span(id, parent, name, t0, System.nanoTime(), attrs))
        current.set(parent)
      }
    }

  /** Id of the calling thread's open span, 0 at the root. */
  def currentId: Long = current.get().longValue

  /** Adds a span measured elsewhere (Spark jobs, stages and tasks). */
  def add(s: Span): Unit = if (enabled) synchronized { spans += s }

  def size: Int = synchronized(spans.size)

  def writeTo(path: java.nio.file.Path): Unit = {
    val lines = synchronized(spans.toList).sortBy(_.startNs).map { s =>
      Json.write(Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "attrs" -> s.attrs))
    }
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Trace {
  /** Times are `System.nanoTime` values, so spans of one run compare directly. */
  final case class Span(id: Long, parent: Long, name: String, startNs: Long, endNs: Long,
                        attrs: Map[String, Any])
}
