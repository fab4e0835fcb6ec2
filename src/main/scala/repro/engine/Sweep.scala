package repro.engine

import repro.graph.DiGraph

/** Vertices in processing order with their in-adjacency in CSR form
  * (`off`/`adj`/`wgt` indexed by position in `vids`).
  */
final case class Block(
    vids: Array[Int],
    off: Array[Int],
    adj: Array[Int],
    wgt: Array[Double],
)

object Block {

  /** The in-edges of `vids`, in that order, from graph `g`. */
  def of(g: DiGraph, vids: Array[Int]): Block = {
    val off = new Array[Int](vids.length + 1)
    var i = 0
    while (i < vids.length) { off(i + 1) = off(i) + g.inDegree(vids(i)); i += 1 }
    val adj = new Array[Int](off(vids.length))
    val wgt = new Array[Double](off(vids.length))
    i = 0
    while (i < vids.length) { g.copyIn(vids(i), adj, wgt, off(i)); i += 1 }
    Block(vids, off, adj, wgt)
  }
}

/** What one sweep did: the max |Δx| over its vertices and how many of them
  * changed state.
  */
final case class Swept(maxDelta: Double, changed: Int)

/** The one vertex-update sweep every engine runs (paper Eq. 1 and Eq. 2).
  *
  * Each vertex of `blk`, in order, folds its in-neighbours' states from `read`
  * and stores its new state into `write`. Passing two arrays gives Eq. 1
  * (every vertex sees previous-round states); passing the same array gives
  * Eq. 2 (vertices see the states already updated earlier in the sweep).
  * The program's [[Fold]] runs each vertex's in-edge loop, so no call is made
  * per edge.
  */
private[engine] object Sweep {

  /** Runs one sweep over `blk`. */
  def apply(blk: Block, prog: VertexProgram, outDeg: Array[Int],
            read: Array[Double], write: Array[Double], source: Int): Swept = {
    val vids = blk.vids; val off = blk.off
    val fold = prog.fold
    var maxDelta = 0.0
    var changed  = 0
    var i = 0
    while (i < vids.length) {
      val v   = vids(i)
      val acc = fold(blk, off(i), off(i + 1), read, outDeg)
      val old = read(v)
      val nx  = prog.apply(v, old, acc, source)
      val d   = math.abs(nx - old)
      if (d > maxDelta) maxDelta = d // ∞ − ∞ is NaN, never greater: unchanged
      if (nx != old) changed += 1
      write(v) = nx
      i += 1
    }
    Swept(maxDelta, changed)
  }
}
