package repro.core

/** Growing processing order maintained with fractional ranks ("val"s) —
  * the paper's `GetOptVal` (Algorithm 1, lines 1–21) plus insertion.
  *
  * A node's val encodes its ordinal: the final order sorts by (val, id).
  * Inserting a node scans only the positions flanking its already-placed
  * neighbors (M(·) is constant between two consecutive neighbors), keeping
  * the count of positive edges `pe` incrementally over one unit entry per
  * edge (parallel edges count once each):
  *   - head position: pe = number of out-edges to placed nodes;
  *   - crossing neighbor u (moving from before-u to after-u):
  *     pe += #edges u→node − #edges node→u.
  * The chosen val is the midpoint of the flanking neighbors' vals
  * (head: min−STEP, tail: max+STEP). Ties keep the earliest (head-most)
  * maximum, matching the strict `<` update in the paper's line 18 —
  * with the head position included so Lemma 2's ≥|E_v|/2 bound holds.
  *
  * Midpoint bisection can exhaust double precision between two adjacent
  * vals; when that happens all placed vals are renumbered rank·STEP.
  *
  * Everything is primitive: an insert's entries are sorted in one reusable
  * buffer (insertion sort up to [[ValInserter.ShortSort]] entries, merged
  * runs beyond), and [[result]] is a stable radix sort of the placed ids by
  * the order-preserving bits of their vals.
  */
final class ValInserter(n: Int) {
  import ValInserter.ShortSort

  private val STEP      = 1024.0
  private val vals      = new Array[Double](n)
  private val isPlaced  = new Array[Boolean](n)
  private var maxV      = 0.0
  private var nPlaced   = 0
  // one insert's entries (an out-entry u is stored as ~u) and the merge target
  private var es        = new Array[Int](ShortSort)
  private var merged    = new Array[Int](ShortSort)

  def size: Int                = nPlaced
  def placed(v: Int): Boolean  = isPlaced(v)
  private[core] def valOf(v: Int): Double = { require(isPlaced(v), s"node $v not placed"); vals(v) }

  /** Place `v` at the tail. Splices an already-decided order (subgraph
    * orders, before high-degree / isolated vertices are inserted).
    */
  def seed(v: Int): Unit = {
    require(!isPlaced(v), s"node $v already placed")
    place(v, if (nPlaced == 0) 0.0 else maxV + STEP)
  }

  private def place(v: Int, value: Double): Unit = {
    vals(v) = value
    isPlaced(v) = true
    if (nPlaced == 0 || value > maxV) maxV = value
    nPlaced += 1
  }

  /** Renumber all placed vals to rank·STEP (precision recovery). */
  private def renormalize(): Unit = {
    val placedNodes = result()
    var r = 0
    while (r < placedNodes.length) { vals(placedNodes(r)) = r * STEP; r += 1 }
    if (placedNodes.nonEmpty) maxV = (placedNodes.length - 1) * STEP
  }

  /** Insert `node` against its placed neighbors: `inN` has one entry per
    * edge u→node, `outN` one per edge node→u (parallel edges repeat the
    * neighbor). Unplaced entries are rejected. Returns the number of edges
    * made positive.
    */
  def insert(node: Int, inN: Array[Int], outN: Array[Int]): Int =
    insert(node, inN, inN.length, outN, outN.length)

  /** [[insert]] over the first `nIn` entries of `inN` and the first `nOut`
    * of `outN`, so a caller can hand over reusable buffers.
    */
  def insert(node: Int, inN: Array[Int], nIn: Int, outN: Array[Int], nOut: Int): Int = {
    require(!isPlaced(node), s"node $node already placed")
    val len = nIn + nOut
    if (es.length < len) {
      es = new Array[Int](math.max(len, 2 * es.length)); merged = new Array[Int](es.length)
    }
    var i = 0
    while (i < nIn) { val u = inN(i); require(isPlaced(u), s"neighbor $u not placed"); es(i) = u; i += 1 }
    i = 0
    while (i < nOut) { val u = outN(i); require(isPlaced(u), s"neighbor $u not placed"); es(nIn + i) = ~u; i += 1 }

    if (len == 0) {
      // no placed neighbors: append to the tail (position is irrelevant to M)
      place(node, if (nPlaced == 0) 0.0 else maxV + STEP)
      return 0
    }

    // entries sorted by neighbor (val, id), so the entries of one neighbor
    // are adjacent
    sortEntries(len)

    var pe      = nOut // before all neighbors: out-edges positive
    var bestPe  = pe
    var bestEnd = -1   // last entry before the chosen position; -1 = head
    i = 0
    while (i < len) {
      pe += (if (es(i) < 0) -1 else 1)
      i += 1
      // M changes only between distinct neighbors
      if ((i == len || nbr(es(i)) != nbr(es(i - 1))) && pe > bestPe) { bestPe = pe; bestEnd = i - 1 }
    }

    val value =
      if (bestEnd == -1) vals(nbr(es(0))) - STEP
      else if (bestEnd == len - 1) vals(nbr(es(bestEnd))) + STEP
      else {
        var lo = vals(nbr(es(bestEnd))); var hi = vals(nbr(es(bestEnd + 1)))
        var mid = (lo + hi) / 2.0
        if (!(lo < mid && mid < hi)) {
          renormalize()
          lo = vals(nbr(es(bestEnd))); hi = vals(nbr(es(bestEnd + 1)))
          mid = (lo + hi) / 2.0
        }
        mid
      }
    place(node, value)
    bestPe
  }

  private def nbr(e: Int): Int = if (e < 0) ~e else e

  /** Entry `a` goes before entry `b`: its neighbor has the smaller (val, id). */
  private def before(a: Int, b: Int): Boolean = {
    val u = nbr(a); val w = nbr(b)
    val c = java.lang.Double.compare(vals(u), vals(w))
    c < 0 || (c == 0 && u < w)
  }

  /** Sort `es(0 until len)`: insertion sort of each run of [[ShortSort]]
    * entries, then bottom-up merges of neighbouring runs.
    */
  private def sortEntries(len: Int): Unit = {
    var lo = 0
    while (lo < len) {
      val hi = math.min(lo + ShortSort, len)
      var i  = lo + 1
      while (i < hi) {
        val e = es(i); var j = i - 1
        while (j >= lo && before(e, es(j))) { es(j + 1) = es(j); j -= 1 }
        es(j + 1) = e
        i += 1
      }
      lo = hi
    }
    var width = ShortSort
    while (width < len) {
      lo = 0
      while (lo < len) {
        val mid = math.min(lo + width, len); val hi = math.min(mid + width, len)
        var i = lo; var j = mid; var k = lo
        while (k < hi) {
          if (j == hi || (i < mid && !before(es(j), es(i)))) { merged(k) = es(i); i += 1 }
          else { merged(k) = es(j); j += 1 }
          k += 1
        }
        lo = hi
      }
      val t = es; es = merged; merged = t
      width *= 2
    }
  }

  /** Placed nodes sorted by (val, id) — the processing order so far. An LSD
    * radix sort, one byte a pass, of the vals' order-preserving bits; the
    * ids enter in ascending order and every pass is stable, so equal vals
    * stay in id order. A byte that every val shares costs no pass.
    */
  def result(): Array[Int] = {
    var ids  = new Array[Int](nPlaced)
    var keys = new Array[Long](nPlaced)
    val count = new Array[Int](8 * 256) // per byte position, one count per byte value
    var k = 0; var v = 0
    while (v < n) {
      if (isPlaced(v)) {
        val b   = java.lang.Double.doubleToRawLongBits(vals(v))
        val key = if (b < 0) ~b else b ^ Long.MinValue // unsigned order = numeric order
        ids(k) = v; keys(k) = key; k += 1
        var d = 0
        while (d < 8) { count(d * 256 + ((key >>> (8 * d)) & 0xff).toInt) += 1; d += 1 }
      }
      v += 1
    }
    var ids2 = new Array[Int](nPlaced); var keys2 = new Array[Long](nPlaced)
    var d = 0
    while (d < 8 && nPlaced > 0) {
      val base = d * 256
      if (count(base + ((keys(0) >>> (8 * d)) & 0xff).toInt) != nPlaced) {
        var at = 0; var c = 0
        while (c < 256) { val x = count(base + c); count(base + c) = at; at += x; c += 1 }
        k = 0
        while (k < nPlaced) {
          val key = keys(k); val slot = base + ((key >>> (8 * d)) & 0xff).toInt
          ids2(count(slot)) = ids(k); keys2(count(slot)) = key; count(slot) += 1
          k += 1
        }
        val ti = ids; ids = ids2; ids2 = ti
        val tk = keys; keys = keys2; keys2 = tk
      }
      d += 1
    }
    ids
  }
}

object ValInserter {

  /** Entry lists up to this length are insertion-sorted; longer ones are
    * merged from insertion-sorted runs of this length.
    */
  private[core] val ShortSort = 24
}
