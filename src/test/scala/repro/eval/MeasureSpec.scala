package repro.eval

import repro.SparkSpec

/** `Measure.sparkCpuSeconds` returns once every task of its body is counted. */
class MeasureSpec extends SparkSpec {

  test("sparkCpuSeconds counts a CPU-burning job, then 0 for an empty body") {
    val (_, busy) = Measure.sparkCpuSeconds(spark) {
      spark.sparkContext.parallelize(1 to 4, 4).map { i =>
        var x = i.toLong
        var j = 0
        while (j < 20000000) { x = x * 6364136223846793005L + j; j += 1 }
        x
      }.collect()
    }
    assert(busy > 0.0)
    val (_, idle) = Measure.sparkCpuSeconds(spark)(())
    assert(idle == 0.0)
  }
}
