package repro.core

/** Reference model for [[ValInserter]]: the boxed implementation it
  * replaced, kept verbatim in its mechanics (entries concatenated and sorted
  * with a boxed `Ordering`, placed nodes sorted with `filter` and `sorted`),
  * so that a test can require the primitive one to return the same counts,
  * the same val bits and the same order after every step.
  */
final class BoxedValInserter(n: Int) {
  private val STEP      = 1024.0
  private val vals      = new Array[Double](n)
  private val isPlaced  = new Array[Boolean](n)
  private var maxV      = 0.0
  private var nPlaced   = 0

  def size: Int                = nPlaced
  def placed(v: Int): Boolean  = isPlaced(v)
  def valOf(v: Int): Double    = { require(isPlaced(v), s"node $v not placed"); vals(v) }

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

  def insert(node: Int, inN: Array[Int], outN: Array[Int]): Int = {
    require(!isPlaced(node), s"node $node already placed")
    (inN ++ outN).foreach(u => require(isPlaced(u), s"neighbor $u not placed"))

    if (inN.isEmpty && outN.isEmpty) {
      place(node, if (nPlaced == 0) 0.0 else maxV + STEP)
      return 0
    }

    def nbr(e: Int): Int = if (e < 0) ~e else e
    val es = (inN ++ outN.map(~_)).sorted(byVal.on(nbr))

    var pe      = outN.length
    var bestPe  = pe
    var bestEnd = -1
    var i = 0
    while (i < es.length) {
      pe += (if (es(i) < 0) -1 else 1)
      i += 1
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

  def result(): Array[Int] = Array.range(0, n).filter(isPlaced).sorted(byVal)
}
