package repro.engine

import repro.graph.DiGraph
import repro.order.VertexOrder

/** Result of one iterative run.
  *
  * `rounds` counts full sweeps executed, *including* the sweep that observed
  * convergence — this reproduces the paper's Fig 2 counts (sync SSSP on the
  * 5-vertex example: 4; async: 3; async + reorder: 2).
  */
final case class RunResult(states: Array[Double], rounds: Int, converged: Boolean) {
  /** Σ of finite state values (used by the convergence-distance experiments). */
  def finiteSum: Double = RunResult.finiteSum(states)
}

object RunResult {

  /** Σ of the finite values of `states`, in index order. */
  def finiteSum(states: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < states.length) { val x = states(i); if (!x.isInfinite && !x.isNaN) s += x; i += 1 }
    s
  }
}

/** Exact sequential engine: Eq. 1 (synchronous / Jacobi) and Eq. 2
  * (asynchronous Gauss–Seidel in a given processing order). This is the
  * reference the Spark block engine is validated against, and the engine
  * that measures iteration rounds exactly as the paper defines them.
  */
object SeqEngine {

  /** A sourced program needs a source among the graph's `n` vertices. */
  private[engine] def checkSource(prog: VertexProgram, source: Int, n: Int): Unit =
    require(!prog.sourced || (0 <= source && source < n),
      s"${prog.name} needs a source in [0,$n), got $source")

  /** `prog`'s initial states of vertices `0 until n`. */
  private[engine] def initialStates(prog: VertexProgram, n: Int, source: Int): Array[Double] = {
    val x = new Array[Double](n)
    var v = 0
    while (v < n) { x(v) = prog.init(v, source); v += 1 }
    x
  }

  /** `g` relabeled by `order` (ids = ordinals), or `g` itself when `order`
    * is the identity.
    */
  private[engine] def inOrder(g: DiGraph, order: VertexOrder): DiGraph = {
    require(order.n == g.numVertices, s"order size ${order.n} != |V|=${g.numVertices}")
    if (isIdentity(order)) g else g.relabel(order.pos)
  }

  private def isIdentity(order: VertexOrder): Boolean = order.pos.indices.forall(v => order.pos(v) == v)

  /** `prog`'s source as an ordinal of `order` (-1 for an unsourced program). */
  private[engine] def sourceOrdinal(prog: VertexProgram, order: VertexOrder, source: Int): Int = {
    checkSource(prog, source, order.n)
    if (prog.sourced) order.pos(source) else -1
  }

  /** The states `x`, indexed by ordinal of `order`, re-indexed by vertex id. */
  private[engine] def byId(order: VertexOrder, x: Array[Double]): Array[Double] =
    if (isIdentity(order)) x else Array.tabulate(order.n)(v => x(order.pos(v)))

  /** Synchronous iteration (Eq. 1): every vertex reads previous-round states. */
  def sync(g: DiGraph, prog: VertexProgram, source: Int = -1, maxRounds: Int = 100000): RunResult = {
    val n      = g.numVertices
    checkSource(prog, source, n)
    val blk    = Block(0, n)
    val outDeg = g.outDegrees
    val fold   = prog.fold
    var r      = fold.load(initialStates(prog, n, source), outDeg, fold.lane(n, track = true))
    var w      = fold.lane(n, track = true)
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      converged = fold.sweep(g, blk, r, w, outDeg, source).maxDelta <= prog.tol
      val t = r; r = w; w = t
      rounds += 1
    }
    RunResult(r.x, rounds, converged)
  }

  /** Asynchronous iteration (Eq. 2): vertices processed in `order`; each
    * reads current-round states of earlier-ordinal in-neighbors and
    * previous-round states of later ones (in-place array sweep). The sweep
    * runs over `g` relabeled by `order`, in id order; `source` and the
    * returned states are indexed by `g`'s ids.
    *
    * After each round, `onRound(round, max |Δx|, changed vertices, states)`
    * runs with round counted from 1 and the live state array, indexed by
    * ordinal, which the next round overwrites (copy it to keep it).
    */
  def async(g: DiGraph, prog: VertexProgram, order: VertexOrder,
            source: Int = -1, maxRounds: Int = 100000,
            onRound: (Int, Double, Int, Array[Double]) => Unit = (_, _, _, _) => ()): RunResult = {
    val h      = inOrder(g, order)
    val n      = h.numVertices
    val s      = sourceOrdinal(prog, order, source)
    val blk    = Block(0, n)
    val outDeg = h.outDegrees
    val fold   = prog.fold
    val lane   = fold.load(initialStates(prog, n, s), outDeg, fold.lane(n, track = true))
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      val sw = fold.sweep(h, blk, lane, lane, outDeg, s)
      converged = sw.maxDelta <= prog.tol
      rounds += 1
      onRound(rounds, sw.maxDelta, sw.changed, lane.x)
    }
    RunResult(byId(order, lane.x), rounds, converged)
  }
}
