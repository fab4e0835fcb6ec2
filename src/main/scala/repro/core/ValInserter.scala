package repro.core

import scala.collection.mutable

/** Growing processing order maintained with fractional ranks ("val"s) —
  * the paper's `GetOptVal` (Algorithm 1, lines 1–21) plus insertion.
  *
  * A node's val encodes its ordinal: the final order sorts by (val, id).
  * Inserting a node scans only the positions flanking its already-placed
  * neighbors (M(·) is constant between two consecutive neighbors), keeping
  * the count of positive edges `pe` incrementally:
  *   - head position: pe = Σ weights of out-edges to placed nodes;
  *   - crossing neighbor u (moving from before-u to after-u):
  *     pe += w_in(u→node) − w_out(node→u).
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
  private var minV      = 0.0
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
    if (nPlaced == 0) { minV = value; maxV = value }
    else { if (value < minV) minV = value; if (value > maxV) maxV = value }
    nPlaced += 1
  }

  /** Renumber all placed vals to rank·STEP (precision recovery). */
  private def renormalize(): Unit = {
    val placedNodes = (0 until n).filter(isPlaced).sortBy(v => (vals(v), v))
    placedNodes.zipWithIndex.foreach { case (v, r) => vals(v) = r * STEP }
    if (placedNodes.nonEmpty) { minV = 0.0; maxV = (placedNodes.size - 1) * STEP }
  }

  /** Insert `node`. `inN` are placed in-neighbors with edge weight (u→node),
    * `outN` placed out-neighbors with weight (node→u); entries for the same
    * neighbor are summed (one unit entry per parallel edge works). Unplaced
    * entries are rejected. Returns the number of edges made positive.
    */
  def insert(node: Int, inN: Seq[(Int, Double)], outN: Seq[(Int, Double)]): Double = {
    require(!isPlaced(node), s"node $node already placed")
    (inN ++ outN).foreach { case (u, _) => require(isPlaced(u), s"neighbor $u not placed") }

    if (inN.isEmpty && outN.isEmpty) {
      // no placed neighbors: append to the tail (position is irrelevant to M)
      place(node, if (nPlaced == 0) 0.0 else maxV + STEP)
      return 0.0
    }

    val wIn  = mutable.HashMap.empty[Int, Double]
    val wOut = mutable.HashMap.empty[Int, Double]
    inN.foreach { case (u, w) => wIn.update(u, wIn.getOrElse(u, 0.0) + w) }
    outN.foreach { case (u, w) => wOut.update(u, wOut.getOrElse(u, 0.0) + w) }
    val nbrs = (wIn.keySet ++ wOut.keySet).toArray.sortBy(u => (vals(u), u))

    var pe      = wOut.valuesIterator.sum // before all neighbors: out-edges positive
    var bestPe  = pe
    var bestIdx = -1                      // -1 = head (before nbrs(0))
    var i = 0
    while (i < nbrs.length) {
      val u = nbrs(i)
      pe += wIn.getOrElse(u, 0.0) - wOut.getOrElse(u, 0.0)
      if (pe > bestPe) { bestPe = pe; bestIdx = i }
      i += 1
    }

    val value =
      if (bestIdx == -1) vals(nbrs(0)) - STEP
      else if (bestIdx == nbrs.length - 1) vals(nbrs(bestIdx)) + STEP
      else {
        var lo = vals(nbrs(bestIdx)); var hi = vals(nbrs(bestIdx + 1))
        var mid = (lo + hi) / 2.0
        if (!(lo < mid && mid < hi)) {
          renormalize()
          lo = vals(nbrs(bestIdx)); hi = vals(nbrs(bestIdx + 1))
          mid = (lo + hi) / 2.0
        }
        mid
      }
    place(node, value)
    bestPe
  }

  /** Placed nodes sorted by (val, id) — the processing order so far. */
  def result(): Array[Int] =
    (0 until n).filter(isPlaced).sortBy(v => (vals(v), v)).toArray
}
