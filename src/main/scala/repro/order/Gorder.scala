package repro.order

import scala.collection.mutable
import repro.graph.DiGraph

/** Gorder (Wei et al., SIGMOD'16) — greedy sliding-window locality ordering.
  *
  * At each step the unplaced vertex with the highest score against the last
  * `window` placed vertices is appended. The score between u and v is
  * S_n(u,v) (number of direct edges between them, either direction) plus
  * S_s(u,v) (number of common in-neighbors). Implemented with the classic
  * lazy max-heap: when v enters (leaves) the window, the keys of its
  * neighbors and siblings are incremented (decremented).
  *
  * `hubCap` bounds sibling expansion through very high out-degree common
  * in-neighbors, the same practical concession the original implementation
  * makes for power-law graphs.
  */
class Gorder(window: Int = 5, hubCap: Int = 64) extends Reorder {
  val name = "Gorder"

  def order(g: DiGraph): VertexOrder = {
    val n = g.numVertices
    if (n == 0) return VertexOrder.identity(0)
    val key    = new Array[Int](n)
    val placed = new Array[Boolean](n)
    // max-heap by (key, -v) with stale entries discarded on pop
    val pq = mutable.PriorityQueue.empty[(Int, Int)](
      Ordering.by { case (k, v) => (k, -v) })

    def bump(center: Int, delta: Int): Unit = {
      def touch(u: Int): Unit =
        if (!placed(u)) {
          key(u) += delta
          if (delta > 0) pq.enqueue((key(u), u))
        }
      // S_n: direct neighbors in either direction
      g.foreachNeighbor(center)(touch)
      // S_s: siblings sharing an in-neighbor w (cap hub expansion)
      g.foreachIn(center) { w =>
        if (g.outDegree(w) <= hubCap) g.foreachOut(w)(touch)
      }
    }

    val out  = new Array[Int](n)
    val win  = mutable.Queue.empty[Int]
    var next = 0 // fallback cursor for disconnected remainders

    def freshSeed(): Int = {
      // highest-degree unplaced vertex at or after the cursor
      var best = -1
      while (next < n && placed(next)) next += 1
      var v = next
      while (v < n) {
        if (!placed(v) && (best == -1 || g.degree(v) > g.degree(best))) best = v
        v += 1
      }
      best
    }

    var i = 0
    while (i < n) {
      var chosen = -1
      while (chosen == -1 && pq.nonEmpty) {
        val (k, v) = pq.dequeue()
        if (!placed(v) && k == key(v)) chosen = v
      }
      if (chosen == -1) chosen = freshSeed()
      placed(chosen) = true
      out(i) = chosen
      win.enqueue(chosen)
      bump(chosen, +1)
      if (win.size > window) bump(win.dequeue(), -1)
      i += 1
    }
    VertexOrder.fromOrder(out)
  }
}

object Gorder extends Gorder(window = 5, hubCap = 64)
