package repro.perfbench

import scala.collection.mutable

/** The generated input: an edge list over vertices `0 until n`, nothing else.
  * Self-loops are kept here; every consumer skips them as the program does.
  */
final class EdgeList(val n: Int, val src: Array[Int], val dst: Array[Int], val w: Array[Double]) {
  def m: Int = src.length

  /** Number of non-self-loop edges: the |E| the program sees. */
  lazy val properEdges: Long = (0 until m).count(i => src(i) != dst(i)).toLong

  /** Out-degree without self-loops, parallel edges counted. */
  lazy val outDeg: Array[Int] = {
    val d = new Array[Int](n)
    var i = 0
    while (i < m) { if (src(i) != dst(i)) d(src(i)) += 1; i += 1 }
    d
  }

  /** Source for sourced programs: the max-out-degree vertex, lowest id on ties. */
  lazy val source: Int = {
    var best = 0; var v = 1
    while (v < n) { if (outDeg(v) > outDeg(best)) best = v; v += 1 }
    best
  }

  /** Forward CSR (out-edges, self-loops dropped) for the exact references. */
  private lazy val csr: (Array[Int], Array[Int], Array[Double]) = {
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < m) { if (src(i) != dst(i)) off(src(i) + 1) += 1; i += 1 }
    var v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    val adj = new Array[Int](off(n)); val wt = new Array[Double](off(n))
    val cur = off.clone()
    i = 0
    while (i < m) {
      if (src(i) != dst(i)) { adj(cur(src(i))) = dst(i); wt(cur(src(i))) = w(i); cur(src(i)) += 1 }
      i += 1
    }
    (off, adj, wt)
  }

  /** Positive edges M(·) of the order whose ordinal of vertex v is `pos(v)`. */
  def positiveEdges(pos: Array[Int]): Long = {
    var c = 0L; var i = 0
    while (i < m) { if (src(i) != dst(i) && pos(src(i)) < pos(dst(i))) c += 1; i += 1 }
    c
  }

  /** Positive edges whose endpoints fall in the same one of `blocks`
    * contiguous ordinal ranges, cut as the block engine cuts them.
    */
  def inBlockPositiveEdges(pos: Array[Int], blocks: Int): Long = {
    val blockOfPos = new Array[Int](n)
    (0 until blocks).foreach { b =>
      java.util.Arrays.fill(blockOfPos, (b.toLong * n / blocks).toInt, ((b + 1).toLong * n / blocks).toInt, b)
    }
    var c = 0L; var i = 0
    while (i < m) {
      val pu = pos(src(i)); val pv = pos(dst(i))
      if (src(i) != dst(i) && pu < pv && blockOfPos(pu) == blockOfPos(pv)) c += 1
      i += 1
    }
    c
  }

  /** Exact shortest-path distances from `s` (Dijkstra), unit weights if `unit`. */
  def shortestPaths(s: Int, unit: Boolean): Array[Double] = {
    val (off, adj, wt) = csr
    val dist = Array.fill(n)(Double.PositiveInfinity)
    if (unit) { // BFS levels
      val queue = new Array[Int](n); var head = 0; var tail = 0
      dist(s) = 0.0; queue(tail) = s; tail += 1
      while (head < tail) {
        val u = queue(head); head += 1
        var j = off(u)
        while (j < off(u + 1)) {
          val v = adj(j)
          if (dist(v).isInfinite) { dist(v) = dist(u) + 1.0; queue(tail) = v; tail += 1 }
          j += 1
        }
      }
    } else {
      val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
      dist(s) = 0.0; pq.enqueue((0.0, s))
      while (pq.nonEmpty) {
        val (d, u) = pq.dequeue()
        if (d == dist(u)) {
          var j = off(u)
          while (j < off(u + 1)) {
            val v = adj(j); val nd = d + wt(j)
            if (nd < dist(v)) { dist(v) = nd; pq.enqueue((nd, v)) }
            j += 1
          }
        }
      }
    }
    dist
  }

  /** Fixed point of x_v = base(v) + f·Σ_{u→v} x_u/|OUT(u)| by Jacobi iteration
    * until max |Δ| ≤ tol; `pinned` (if ≥ 0) stays at 1 (PHP's source).
    */
  def linearFixedPoint(f: Double, base: Double, pinned: Int, tol: Double): Array[Double] = {
    val (off, adj, _) = csr
    var x   = Array.tabulate(n)(v => if (v == pinned) 1.0 else 0.0)
    var nx  = new Array[Double](n)
    var delta = Double.PositiveInfinity
    while (delta > tol) {
      java.util.Arrays.fill(nx, 0.0)
      var u = 0
      while (u < n) {
        val share = x(u) / math.max(1, off(u + 1) - off(u))
        var j = off(u)
        while (j < off(u + 1)) { nx(adj(j)) += share; j += 1 }
        u += 1
      }
      delta = 0.0
      var v = 0
      while (v < n) {
        val y = if (v == pinned) 1.0 else base + f * nx(v)
        val d = math.abs(y - x(v))
        if (d > delta) delta = d
        nx(v) = y
        v += 1
      }
      val t = x; x = nx; nx = t
    }
    x
  }
}

/** Converged states the engines must reproduce, computed without the program. */
final case class References(pageRank: Array[Double], php: Array[Double],
                            sssp: Array[Double], bfs: Array[Double]) {
  def of(algo: String): Array[Double] = algo match {
    case "pagerank" => pageRank
    case "php"      => php
    case "sssp"     => sssp
    case "bfs"      => bfs
  }
}

object References {
  /** Reference fixed points are iterated this much tighter than the program's tol. */
  val Tighten = 1e-4

  def apply(e: EdgeList, damping: Double, prTol: Double, penalty: Double, phpTol: Double): References =
    References(
      e.linearFixedPoint(damping, 1.0 - damping, -1, prTol * Tighten),
      e.linearFixedPoint(penalty, 0.0, e.source, phpTol * Tighten),
      e.shortestPaths(e.source, unit = false),
      e.shortestPaths(e.source, unit = true),
    )

  /** Index of the first vertex whose state differs from `ref` by more than
    * `allowed`·max(1, |ref|) (read through `pos`: state of v at `pos(v)`),
    * or -1 when all match. Infinite states must match exactly.
    */
  def firstMismatch(states: Array[Double], ref: Array[Double], pos: Int => Int,
                    allowed: Double): Int = {
    var v = 0
    while (v < ref.length) {
      val x = states(pos(v)); val r = ref(v)
      val ok =
        if (r.isInfinite || x.isInfinite) x == r
        else math.abs(x - r) <= allowed * math.max(1.0, math.abs(r))
      if (!ok) return v
      v += 1
    }
    -1
  }
}
