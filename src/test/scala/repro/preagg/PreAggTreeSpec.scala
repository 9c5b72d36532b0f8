package repro.preagg

import org.scalatest.funsuite.AnyFunSuite
import repro.bsi.BSIAggregates
import repro.bsi.RefModel

/** Pre-aggregate tree (Fig. 6): every range query must equal the direct fold
  * of the leaves, with O(log n) node merges.
  */
class PreAggTreeSpec extends AnyFunSuite {
  import RefModel._

  private def days(n: Int, seed: Int): IndexedSeq[Ref] =
    (0 until n).map(d => random(seed * 100 + d, 50 + d * 10, 500, 1000L))

  for (n <- Seq(1, 2, 3, 5, 7, 8, 13)) {
    test(s"sum tree: every [lo, hi] range equals the direct sumBSI fold (n=$n)") {
      val refs = days(n, n)
      val tree = PreAggTree.sumTree(refs.map(toBsi))
      for (lo <- 0 until n; hi <- lo until n) {
        val expected = refs.slice(lo, hi + 1).reduce(add)
        assert(bsiToRef(tree.query(lo, hi)) == expected, s"range [$lo,$hi]")
      }
    }
  }

  test("paper's example: days 1..7 of an 8-day tree merge exactly 3 nodes (1234, 56, 7)") {
    val refs = days(8, 42)
    val tree = PreAggTree.sumTree(refs.map(toBsi))
    val got = tree.query(0, 6)
    assert(tree.lastNodesMerged == 3)
    assert(bsiToRef(got) == refs.take(7).reduce(add))
  }

  test("full range merges exactly 1 node (the root covers it)") {
    val refs = days(8, 7)
    val tree = PreAggTree.sumTree(refs.map(toBsi))
    tree.query(0, 7)
    assert(tree.lastNodesMerged == 1)
  }

  test("node merges are O(log n), never the leaf count") {
    val n = 64
    val tree = PreAggTree.sumTree(days(n, 3).map(toBsi))
    for (lo <- Seq(0, 1, 5); hi <- Seq(40, 62, 63)) {
      tree.query(lo, hi)
      assert(tree.lastNodesMerged <= 2 * 7, s"range [$lo,$hi] merged ${tree.lastNodesMerged}")
    }
  }

  test("distinctPos tree computes multi-day unique visitors") {
    val refs = days(6, 9)
    val tree = new PreAggTree(refs.map(toBsi), BSIAggregates.distinctPos)
    val got = tree.query(1, 4)
    val expected = refs.slice(1, 5).map(_.keySet).reduce(_ ++ _)
    assert(bitmapToSet(got.existence) == expected)
  }

  test("maxBSI tree computes running day maxima") {
    val refs = days(5, 11)
    val tree = new PreAggTree(refs.map(toBsi), BSIAggregates.maxBSI)
    val got = tree.query(0, 4)
    assert(bsiToRef(got) == refs.reduce(maxOf))
  }

  test("bad ranges are rejected") {
    val tree = PreAggTree.sumTree(days(4, 5).map(toBsi))
    intercept[IllegalArgumentException](tree.query(-1, 2))
    intercept[IllegalArgumentException](tree.query(2, 4))
    intercept[IllegalArgumentException](tree.query(3, 2))
  }

  test("single-day ranges return the leaves unchanged") {
    val refs = days(5, 21)
    val tree = PreAggTree.sumTree(refs.map(toBsi))
    for (d <- 0 until 5) assert(bsiToRef(tree.query(d, d)) == refs(d))
  }
}
