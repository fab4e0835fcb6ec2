package repro.order

import repro.graph.DiGraph
import repro.partition.Partitioner

/** Default order: the original vertex IDs (the paper's baseline). */
object DefaultOrder extends Reorder {
  val name = "Default"
  def order(g: DiGraph): VertexOrder = VertexOrder.identity(g.numVertices)
}

/** Degree Sorting: all vertices sorted by total degree, descending
  * (ties by original ID for determinism).
  */
object DegreeSort extends Reorder {
  val name = "DegSort"
  def order(g: DiGraph): VertexOrder = VertexOrder.fromOrder(ranking(g))

  /** Vertices ranked by (degree desc, id asc): [[Partitioner.ranking]] by
    * max degree − degree. The one degree ranking behind DegSort, HubSort's
    * hub list, Gorder's fallback seeds and GoGraph's high-degree extraction.
    */
  def ranking(g: DiGraph): Array[Int] = {
    val key = g.degrees
    val max = Partitioner.numParts(key) - 1 // the largest degree
    var v   = 0
    while (v < key.length) { key(v) = max - key(v); v += 1 }
    Partitioner.ranking(key)
  }
}

/** Hub Sorting (frequency-based clustering, Zhang et al. 2016): hub vertices
  * (degree > average) are sorted by degree descending and *swapped* into the
  * leading positions; each displaced non-hub takes the vacated slot, so most
  * non-hub subscripts are preserved.
  */
object HubSort extends Reorder {
  val name = "HubSort"
  def order(g: DiGraph): VertexOrder = {
    val n     = g.numVertices
    val avg   = if (n == 0) 0.0 else g.numEdges.toDouble * 2 / n
    // the hubs are the ranking's prefix of vertices with degree > avg
    val hubs  = DegreeSort.ranking(g).takeWhile(v => g.degree(v) > avg)
    val order = Array.range(0, n)
    val pos   = Array.range(0, n)
    hubs.indices.foreach { i =>
      val h  = hubs(i)
      val ph = pos(h)
      val other = order(i)
      order(i) = h; pos(h) = i
      order(ph) = other; pos(other) = ph
    }
    VertexOrder.fromOrder(order)
  }
}

/** Hub Clustering (Balaji & Lucia 2018): hub vertices (degree > average) get
  * a contiguous range of subscripts at the front, preserving their relative
  * order; non-hubs follow, also preserving relative order.
  */
object HubCluster extends Reorder {
  val name = "HubCluster"
  def order(g: DiGraph): VertexOrder = {
    val n   = g.numVertices
    val avg = if (n == 0) 0.0 else g.numEdges.toDouble * 2 / n
    // hubs (key 0) first; the stable ranking keeps ids ascending in each group
    val hubFirst = new Array[Int](n)
    var v        = 0
    while (v < n) { if (g.degree(v) <= avg) hubFirst(v) = 1; v += 1 }
    VertexOrder.fromOrder(Partitioner.ranking(hubFirst))
  }
}
