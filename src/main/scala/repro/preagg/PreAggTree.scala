package repro.preagg

import repro.bsi.BSI

/** The pre-aggregate tree of §4.3 (Fig. 6): a binary segment tree over the
  * daily BSIs of one (segment, metric), where each internal node is the
  * aggregate (by default `sumBSI`) of its two children. A range of `n`
  * successive days is answered by merging O(log n) canonical nodes instead of
  * `n` leaves — e.g. days 1..7 of an 8-day tree merges the three nodes
  * (1234, 56, 7), exactly the paper's example.
  *
  * Works for any associative aggregate over BSIs (`sumBSI`, `maxBSI`,
  * `distinctPos`, …) — non-decomposable aggregates are handled upstream by
  * keeping BSI-format state (§4.2), which this tree merges fine.
  */
final class PreAggTree(leaves: IndexedSeq[BSI], combine: (BSI, BSI) => BSI) extends Serializable {
  require(leaves.nonEmpty, "pre-aggregate tree needs at least one day")

  private val n = leaves.length
  // 1-based heap layout over the next power of two; missing leaves are empty.
  private val size = Integer.highestOneBit(math.max(1, n - 1)) * 2 max 1
  private val nodes = new Array[BSI](2 * size)

  locally {
    var i = 0
    while (i < size) { nodes(size + i) = if (i < n) leaves(i) else BSI.empty; i += 1 }
    var j = size - 1
    while (j >= 1) { nodes(j) = combine(nodes(2 * j), nodes(2 * j + 1)); j -= 1 }
  }

  /** Count of tree nodes merged by the last [[query]] (for tests/benches). */
  @volatile var lastNodesMerged: Int = 0

  /** Aggregate days `lo..hi` (0-based, inclusive) by merging canonical nodes. */
  def query(lo: Int, hi: Int): BSI = {
    require(lo >= 0 && hi < n && lo <= hi, s"bad range [$lo, $hi] for $n days")
    var l = lo + size
    var r = hi + size + 1 // exclusive
    var acc = BSI.empty
    var seen = false
    var merged = 0
    def fold(b: BSI): Unit = {
      merged += 1
      if (!seen) { acc = b; seen = true } else acc = combine(acc, b)
    }
    while (l < r) {
      if ((l & 1) == 1) { fold(nodes(l)); l += 1 }
      if ((r & 1) == 1) { r -= 1; fold(nodes(r)) }
      l >>= 1
      r >>= 1
    }
    lastNodesMerged = merged
    acc
  }
}

object PreAggTree {
  import repro.bsi.BSIAggregates

  /** Tree with the default `sumBSI` merge. */
  def sumTree(leaves: IndexedSeq[BSI]): PreAggTree =
    new PreAggTree(leaves, BSIAggregates.sumBSI)
}
