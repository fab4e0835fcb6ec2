package repro.partition

import repro.graph.DiGraph

/** Louvain community detection (Blondel et al. 2008), first-level local-move
  * phase with bounded passes over the undirected view.
  *
  * Each pass moves every vertex to the neighboring community with the best
  * positive modularity gain; passes repeat until no vertex moves (or
  * `MaxPasses`). One level suffices for GoGraph's divide step — the combine
  * phase treats whole communities as super-vertices anyway.
  */
object Louvain extends Partitioner {
  val name = "Louvain"

  private val MaxPasses = 10

  def partition(g: DiGraph, k: Int): Array[Int] = {
    val n = g.numVertices
    if (n == 0) return Array.empty
    if (g.numEdges == 0) return Array.range(0, n)
    val m2 = 2.0 * g.numEdges

    val comm    = Array.range(0, n)
    val deg     = new Array[Double](n)
    var i       = 0
    while (i < n) { deg(i) = g.degree(i); i += 1 }
    val commDeg = deg.clone()

    val wTo = new Tally(n)
    var pass   = 0
    var moved  = true
    while (moved && pass < MaxPasses) {
      moved = false
      var v = 0
      while (v < n) {
        wTo.clear()
        g.foreachNeighbor(v)(u => if (u != v) wTo.add(comm(u)))
        if (wTo.nonEmpty) {
          val cur = comm(v)
          commDeg(cur) -= deg(v) // evaluate gains with v removed from its community
          var bestC = cur
          var bestGain = wTo(cur) / m2 - deg(v) * commDeg(cur) / (m2 * m2)
          // best gain, ties (within 1e-15) to the smallest community id
          wTo.foreach { (c, w) =>
            if (c != cur) {
              val gain = w / m2 - deg(v) * commDeg(c) / (m2 * m2)
              if (gain > bestGain + 1e-15 || (math.abs(gain - bestGain) <= 1e-15 && c < bestC)) {
                bestGain = gain; bestC = c
              }
            }
          }
          commDeg(bestC) += deg(v)
          if (bestC != cur) { comm(v) = bestC; moved = true }
        }
        v += 1
      }
      pass += 1
    }
    Partitioner.compact(comm)
  }
}
