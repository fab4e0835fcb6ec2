package repro.order

import repro.graph.DiGraph

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

  /** Vertices ranked by (degree desc, id asc): a stable counting sort by
    * degree. The one degree ranking behind DegSort, HubSort's hub list,
    * Gorder's fallback seeds and GoGraph's high-degree extraction.
    */
  def ranking(g: DiGraph): Array[Int] = {
    val n   = g.numVertices
    val deg = Array.tabulate(n)(g.degree)
    // next(d) = next slot of degree d: after every vertex of higher degree
    val next = new Array[Int](if (n == 0) 1 else deg.max + 1)
    deg.foreach(d => next(d) += 1)
    var below = n
    var d = 0
    while (d < next.length) { below -= next(d); next(d) = below; d += 1 }
    val out = new Array[Int](n)
    var v = 0
    while (v < n) { out(next(deg(v))) = v; next(deg(v)) += 1; v += 1 }
    out
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
    val order = Array.tabulate(n)(i => i)
    val pos   = Array.tabulate(n)(i => i)
    hubs.zipWithIndex.foreach { case (h, i) =>
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
    val n    = g.numVertices
    val avg  = if (n == 0) 0.0 else g.numEdges.toDouble * 2 / n
    val (hubs, rest) = (0 until n).partition(v => g.degree(v) > avg)
    VertexOrder.fromOrder((hubs ++ rest).toArray)
  }
}

/** Sort by in-degree ascending — not one of the paper's competitors, but a
  * useful adversarial/diagnostic order in tests (pushes sinks to the back).
  */
object InDegreeAscending extends Reorder {
  val name = "InDegAsc"
  def order(g: DiGraph): VertexOrder = {
    val vs = Array.tabulate(g.numVertices)(v => v)
    VertexOrder.fromOrder(vs.sortBy(v => (g.inDegree(v), v)))
  }
}
