package metricbench

/** Minimal JSON writer for the benchmark's result lines and trace files. */
object Json {
  def write(v: Any): String = {
    val sb = new StringBuilder
    def str(s: String): Unit = {
      sb += '"'
      s.foreach {
        case '"'  => sb ++= "\\\""
        case '\\' => sb ++= "\\\\"
        case '\n' => sb ++= "\\n"
        case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
        case c    => sb += c
      }
      sb += '"'
    }
    def go(x: Any): Unit = x match {
      case null                       => sb ++= "null"
      case s: String                  => str(s)
      case b: Boolean                 => sb ++= b.toString
      case d: Double if d.isNaN || d.isInfinite => sb ++= "null"
      case d: Double                  => sb ++= d.toString
      case n: Int                     => sb ++= n.toString
      case n: Long                    => sb ++= n.toString
      case m: scala.collection.Map[_, _] =>
        sb += '{'
        var first = true
        m.foreach { case (k, v) =>
          if (!first) sb += ','
          first = false
          str(k.toString); sb += ':'; go(v)
        }
        sb += '}'
      case s: Iterable[_] =>
        sb += '['
        var first = true
        s.foreach { e => if (!first) sb += ','; first = false; go(e) }
        sb += ']'
      case o: Option[_] => go(o.orNull)
      case other         => str(other.toString)
    }
    go(v)
    sb.toString
  }
}
