package repro.order

import repro.graph.DiGraph

/** Gorder (Wei et al., SIGMOD'16) — greedy sliding-window locality ordering.
  *
  * At each step the unplaced vertex with the highest score against the last
  * `window` placed vertices is appended. The score between u and v is
  * S_n(u,v) (number of direct edges between them, either direction) plus
  * S_s(u,v) (number of common in-neighbors). When v enters (leaves) the
  * window, the key of every unplaced neighbor and sibling is incremented
  * (decremented) once per edge or shared in-neighbor, so parallel edges
  * count with multiplicity. The choice rule is exact:
  *
  *  - take the unplaced vertex with the largest (key, −id), if any key is ≥ 1;
  *  - otherwise take the unplaced vertex with the largest (degree, −id).
  *
  * The first rule reads an indexed binary max-heap holding exactly the
  * unplaced vertices with key ≥ 1; the second walks [[DegreeSort.ranking]]
  * with a cursor. The window is the tail of the output array itself.
  *
  * `hubCap` bounds sibling expansion through very high out-degree common
  * in-neighbors, the same practical concession the original implementation
  * makes for power-law graphs.
  */
class Gorder(window: Int = 5, hubCap: Int = 64) extends Reorder {
  require(window >= 0, s"window must be >= 0, got $window")
  val name = "Gorder"

  def order(g: DiGraph): VertexOrder = {
    val n = g.numVertices
    if (n == 0) return VertexOrder.identity(0)
    val key    = new Array[Int](n)
    val placed = new Array[Boolean](n)

    // indexed max-heap over (key desc, id asc); at(v) = slot of v, or -1
    val heap = new Array[Int](n)
    val at   = Array.fill(n)(-1)
    var size = 0

    def above(a: Int, b: Int): Boolean =
      key(a) > key(b) || (key(a) == key(b) && a < b)

    def put(i: Int, v: Int): Unit = { heap(i) = v; at(v) = i }

    def siftUp(v: Int): Unit = {
      var i = at(v)
      while (i > 0 && above(v, heap((i - 1) / 2))) {
        put(i, heap((i - 1) / 2)); i = (i - 1) / 2
      }
      put(i, v)
    }

    def siftDown(v: Int): Unit = {
      var i = at(v)
      var done = false
      while (!done) {
        val l = 2 * i + 1
        val c = if (l + 1 < size && above(heap(l + 1), heap(l))) l + 1 else l
        if (c < size && above(heap(c), v)) { put(i, heap(c)); i = c }
        else done = true
      }
      put(i, v)
    }

    def remove(v: Int): Unit = {
      val i = at(v)
      at(v) = -1
      size -= 1
      if (i < size) {
        val last = heap(size)
        put(i, last)
        siftDown(last); siftUp(last)
      }
    }

    def touch(u: Int, delta: Int): Unit =
      if (!placed(u)) {
        key(u) += delta
        if (delta > 0) {
          if (at(u) < 0) { put(size, u); size += 1 }
          siftUp(u)
        } else if (key(u) == 0) remove(u)
        else siftDown(u)
      }

    def bump(center: Int, delta: Int): Unit = {
      // S_n: direct neighbors in either direction
      g.foreachNeighbor(center)(touch(_, delta))
      // S_s: siblings sharing an in-neighbor w (cap hub expansion)
      g.foreachIn(center) { w =>
        if (g.outDegree(w) <= hubCap) g.foreachOut(w)(touch(_, delta))
      }
    }

    val seeds = DegreeSort.ranking(g) // fallback when no key is >= 1
    var next  = 0
    val out   = new Array[Int](n)
    var i     = 0
    while (i < n) {
      val chosen =
        if (size > 0) heap(0)
        else {
          while (placed(seeds(next))) next += 1
          seeds(next)
        }
      if (at(chosen) >= 0) remove(chosen)
      placed(chosen) = true
      out(i) = chosen
      bump(chosen, +1)
      // the window is out(i - window .. i); the oldest one leaves
      if (i >= window) bump(out(i - window), -1)
      i += 1
    }
    VertexOrder.fromOrder(out)
  }
}

object Gorder extends Gorder(window = 5, hubCap = 64)
