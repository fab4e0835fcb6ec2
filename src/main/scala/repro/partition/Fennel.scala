package repro.partition

import repro.graph.DiGraph

/** Fennel streaming partitioning (Tsourakakis et al., WSDM'14).
  *
  * Vertices stream in ID order; each is assigned to the partition maximizing
  * |N(v) ∩ P_i| − α·(( |P_i|+1 )^γ − |P_i|^γ) with γ = 1.5,
  * α = √k · m / n^1.5, subject to the balance cap ν·n/k (ν = 1.1).
  * The paper observes Fennel underperforms as a GoGraph divide step because
  * streaming decisions see only a prefix of the graph — this reproduction
  * keeps that property.
  */
object Fennel extends Partitioner {
  val name = "Fennel"

  private val Gamma = 1.5
  private val Nu    = 1.1

  def partition(g: DiGraph, k: Int): Array[Int] = {
    val n = g.numVertices
    if (n == 0) return Array.empty
    val kk = math.max(1, math.min(k, n))
    if (kk == 1) return new Array[Int](n)
    val m     = math.max(1, g.numEdges)
    val alpha = math.sqrt(kk.toDouble) * m / math.pow(n.toDouble, Gamma)
    val cap   = math.max(1.0, Nu * n.toDouble / kk)

    val labels = new Array[Int](n)
    java.util.Arrays.fill(labels, -1)
    val sizes  = new Array[Int](kk)
    val nbrCnt = new Array[Int](kk)
    // each part's penalty α((s+1)^γ − s^γ) at its size s, recomputed only
    // when the part grows
    def penalty(size: Int): Double = {
      val s = size.toDouble
      alpha * (math.pow(s + 1, Gamma) - math.pow(s, Gamma))
    }
    val pen    = new Array[Double](kk)
    java.util.Arrays.fill(pen, penalty(0))
    var v = 0
    while (v < n) {
      java.util.Arrays.fill(nbrCnt, 0)
      val addNbr = (u: Int) => if (labels(u) >= 0) nbrCnt(labels(u)) += 1
      g.foreachNeighbor(v)(addNbr)
      var best = -1; var bestScore = Double.NegativeInfinity
      var p = 0
      while (p < kk) {
        if (sizes(p) + 1 <= cap) {
          val score = nbrCnt(p) - pen(p)
          if (score > bestScore) { bestScore = score; best = p }
        }
        p += 1
      }
      if (best == -1) best = sizes.zipWithIndex.minBy(_._1)._2 // all capped: least loaded
      labels(v) = best
      sizes(best) += 1
      pen(best) = penalty(sizes(best))
      v += 1
    }
    Partitioner.compact(labels)
  }
}
