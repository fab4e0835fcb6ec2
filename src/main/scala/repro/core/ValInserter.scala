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
  */
final class ValInserter(n: Int) {
  private val STEP      = 1024.0
  private val vals      = new Array[Double](n)
  private val isPlaced  = new Array[Boolean](n)
  private var maxV      = 0.0
  private var nPlaced   = 0

  def size: Int                = nPlaced
  def placed(v: Int): Boolean  = isPlaced(v)
  def valOf(v: Int): Double    = { require(isPlaced(v), s"node $v not placed"); vals(v) }

  /** Pre-seed with an already-decided order (used when splicing subgraph
    * orders before inserting high-degree / isolated vertices).
    */
  def seed(nodesInOrder: IterableOnce[Int]): Unit = {
    nodesInOrder.iterator.foreach { v =>
      require(!isPlaced(v), s"node $v already placed")
      place(v, if (nPlaced == 0) 0.0 else maxV + STEP)
    }
  }

  private def place(v: Int, value: Double): Unit = {
    vals(v) = value
    isPlaced(v) = true
    if (nPlaced == 0 || value > maxV) maxV = value
    nPlaced += 1
  }

  /** Placed nodes by (val, id): the processing order. */
  private val byVal: Ordering[Int] = (a, b) => {
    val c = java.lang.Double.compare(vals(a), vals(b))
    if (c != 0) c else Integer.compare(a, b)
  }

  /** Renumber all placed vals to rank·STEP (precision recovery). */
  private def renormalize(): Unit = {
    val placedNodes = result()
    placedNodes.indices.foreach(r => vals(placedNodes(r)) = r * STEP)
    if (placedNodes.nonEmpty) maxV = (placedNodes.length - 1) * STEP
  }

  /** Insert `node` against its placed neighbors: `inN` has one entry per
    * edge u→node, `outN` one per edge node→u (parallel edges repeat the
    * neighbor). Unplaced entries are rejected. Returns the number of edges
    * made positive.
    */
  def insert(node: Int, inN: Array[Int], outN: Array[Int]): Int = {
    require(!isPlaced(node), s"node $node already placed")
    (inN ++ outN).foreach(u => require(isPlaced(u), s"neighbor $u not placed"))

    if (inN.isEmpty && outN.isEmpty) {
      // no placed neighbors: append to the tail (position is irrelevant to M)
      place(node, if (nPlaced == 0) 0.0 else maxV + STEP)
      return 0
    }

    // entries sorted by neighbor (val, id); an out-entry u is stored as ~u,
    // so the entries of one neighbor are adjacent
    def nbr(e: Int): Int = if (e < 0) ~e else e
    val es = (inN ++ outN.map(~_)).sorted(byVal.on(nbr))

    var pe      = outN.length // before all neighbors: out-edges positive
    var bestPe  = pe
    var bestEnd = -1          // last entry before the chosen position; -1 = head
    var i = 0
    while (i < es.length) {
      pe += (if (es(i) < 0) -1 else 1)
      i += 1
      // M changes only between distinct neighbors
      if ((i == es.length || nbr(es(i)) != nbr(es(i - 1))) && pe > bestPe) { bestPe = pe; bestEnd = i - 1 }
    }

    val value =
      if (bestEnd == -1) vals(nbr(es(0))) - STEP
      else if (bestEnd == es.length - 1) vals(nbr(es(bestEnd))) + STEP
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

  /** Placed nodes sorted by (val, id) — the processing order so far. */
  def result(): Array[Int] = Array.range(0, n).filter(isPlaced).sorted(byVal)
}
