package repro.partition

import repro.graph.DiGraph

/** Rabbit-Partition (Arai et al., IPDPS'16) — GoGraph's default divide step.
  *
  * Single-pass incremental community aggregation over the undirected view:
  * vertices are visited in ascending-degree order and each is merged into the
  * neighboring community with the largest positive modularity gain
  * ΔQ ∝ w(v,C)/(2m) − deg(v)·deg(C)/(2m)², tracked with union-find.
  */
object RabbitPartition extends Partitioner {
  val name = "Rabbit"

  def partition(g: DiGraph, k: Int): Array[Int] = {
    val n = g.numVertices
    if (n == 0) return Array.empty
    val m2 = 2.0 * g.numEdges // undirected degree mass
    if (g.numEdges == 0) return Array.range(0, n)

    val parent = Array.range(0, n)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val nx = parent(c); parent(c) = r; c = nx }
      r
    }
    // community total (undirected) degree
    val deg     = g.degrees
    val commDeg = new Array[Double](n)
    var i       = 0
    while (i < n) { commDeg(i) = deg(i); i += 1 }

    val wTo   = new Tally(n)
    val visit = Partitioner.ranking(deg)
    i = 0
    while (i < n) {
      val v  = visit(i)
      val rv = find(v)
      wTo.clear()
      g.foreachNeighbor(v) { u => val ru = find(u); if (ru != rv) wTo.add(ru) }
      if (wTo.nonEmpty) {
        val dv = g.degree(v).toDouble
        // highest positive gain, ties to the smallest community id
        var bestC = -1; var bestGain = 0.0
        wTo.foreach { (c, w) =>
          val gain = w / m2 - dv * commDeg(c) / (m2 * m2)
          if (gain > bestGain || (gain == bestGain && bestC != -1 && c < bestC)) {
            bestGain = gain; bestC = c
          }
        }
        if (bestC != -1 && bestGain > 0.0) {
          parent(rv) = bestC
          commDeg(bestC) += commDeg(rv)
        }
      }
      i += 1
    }
    val root = new Array[Int](n)
    i = 0
    while (i < n) { root(i) = find(i); i += 1 }
    Partitioner.compact(root)
  }
}
