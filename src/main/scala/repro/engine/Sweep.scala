package repro.engine

import repro.graph.DiGraph

/** The vertices `lo until hi` of a graph whose ids are ordinals, swept in id
  * order over the graph's own in-CSR.
  */
final case class Block(lo: Int, hi: Int)

/** What one sweep did: the max |Δx| over its vertices and how many of them
  * changed state.
  */
final case class Swept(maxDelta: Double, changed: Int)

/** The per-vertex arrays a sweep reads or writes, indexed by vertex id:
  *   - `x`, the states;
  *   - `y`, a Σ fold's emitted x/|OUT| (null for a min-plus fold), written
  *     each time `x` is;
  *   - `dirty`, a min-plus fold's flags (null for a Σ fold and in block
  *     tasks): set when an in-neighbour of the vertex changed since the
  *     vertex was last folded.
  *
  * Passing two lanes to [[Fold.sweep]] gives Eq. 1 (every vertex sees
  * previous-round states); passing the same lane twice gives Eq. 2 (vertices
  * see the states already updated earlier in the sweep).
  */
private[engine] final class Lane(val x: Array[Double], val y: Array[Double], val dirty: Array[Boolean])

/** A program's whole vertex update (paper Eq. 1 and Eq. 2), one case per
  * program family (GraphBLAS's semirings, Kepner et al. 2016). Each case owns
  * one tight loop over a block's vertices and their in-edges, with the update
  * written inside it, so a sweep makes no call per vertex or per edge; the
  * program's constants are its case's fields. Every engine runs these loops:
  * [[SeqEngine.sync]], [[SeqEngine.async]] and the block engine's tasks.
  */
sealed abstract class Fold extends Serializable {

  /** A lane of `n` vertices, with dirty flags (all clear) if `track`. */
  private[engine] def lane(n: Int, track: Boolean): Lane

  /** Loads the states `x0` into `l` (a lane of as many vertices) so that
    * the next sweep starts from them: copies them, fills the emitted array
    * from the copy and sets every dirty flag. Returns `l`.
    */
  private[engine] def load(x0: Array[Double], outDeg: Array[Int], l: Lane): Lane

  /** One sweep over `g`'s vertices `blk.lo until blk.hi` in id order: each
    * vertex folds its in-edges from `r` and writes its new state (and what
    * goes with it) into `w`. `outDeg` is every vertex's out-degree; `g`'s
    * out-edges carry the dirty flags.
    */
  private[engine] def sweep(g: DiGraph, blk: Block, r: Lane, w: Lane, outDeg: Array[Int], source: Int): Swept
}

object Fold {

  /** x_v = base + scale · Σ_{u∈IN(v)} y_u with y_u = x_u/|OUT(u)| (PageRank,
    * PHP); with `pinSource` the source stays at 1. y is emitted by the writer
    * of x, the same division on the same operands as one per edge, so the
    * bits are those of Σ x_u/|OUT(u)|. y of a vertex without out-edges is
    * never read.
    */
  final case class Sum(base: Double, scale: Double, pinSource: Boolean) extends Fold {

    private[engine] def lane(n: Int, track: Boolean): Lane = new Lane(new Array[Double](n), new Array[Double](n), null)

    private[engine] def load(x0: Array[Double], outDeg: Array[Int], l: Lane): Lane = {
      val x = l.x; val y = l.y
      var v = 0
      while (v < x.length) { val s = x0(v); x(v) = s; y(v) = s / outDeg(v); v += 1 }
      l
    }

    private[engine] def sweep(g: DiGraph, blk: Block, r: Lane, w: Lane, outDeg: Array[Int], source: Int): Swept = {
      val off = g.inOff; val adj = g.inAdj
      val x   = r.x; val y = r.y; val xw = w.x; val yw = w.y
      val pin = if (pinSource) source else -1
      val b   = base; val c = scale
      var maxDelta = 0.0
      var changed  = 0
      val hi = blk.hi
      var v  = blk.lo
      while (v < hi) {
        val end = off(v + 1)
        var acc = 0.0
        var j   = off(v)
        while (j < end) { acc = acc + y(adj(j)); j += 1 }
        val old = x(v)
        val nx  = if (v == pin) 1.0 else b + c * acc
        val d   = math.abs(nx - old)
        if (d > maxDelta) maxDelta = d
        if (nx != old) changed += 1
        xw(v) = nx
        yw(v) = nx / outDeg(v)
        v += 1
      }
      Swept(maxDelta, changed)
    }
  }

  /** x_v = min(x_v, min_{u∈IN(v)} x_u + w_uv), with the edge weights when
    * `weighted` (SSSP) and 1 per edge otherwise (BFS).
    *
    * With dirty flags (SeqEngine) a vertex is folded only if an in-neighbour
    * changed since it was last folded, and a change sets its out-neighbours'
    * flags. This is exact: with no in-neighbour changed the fold is the one
    * last taken, and the state is already at most that. A skipped vertex
    * keeps its state, copied into `w`.
    */
  final case class MinPlus(weighted: Boolean) extends Fold {

    private[engine] def lane(n: Int, track: Boolean): Lane =
      new Lane(new Array[Double](n), null, if (track) new Array[Boolean](n) else null)

    private[engine] def load(x0: Array[Double], outDeg: Array[Int], l: Lane): Lane = {
      System.arraycopy(x0, 0, l.x, 0, x0.length)
      if (l.dirty != null) java.util.Arrays.fill(l.dirty, true)
      l
    }

    private[engine] def sweep(g: DiGraph, blk: Block, r: Lane, w: Lane, outDeg: Array[Int], source: Int): Swept = {
      val off   = g.inOff; val adj = g.inAdj; val wgt = g.inWgt
      val x     = r.x; val xw = w.x
      val dirty = r.dirty; val mark = w.dirty
      val byWgt = weighted
      val set: Int => Unit = u => mark(u) = true
      var maxDelta = 0.0
      var changed  = 0
      val hi = blk.hi
      var v  = blk.lo
      while (v < hi) {
        val old = x(v)
        if (dirty == null || dirty(v)) {
          if (dirty != null) dirty(v) = false
          val end = off(v + 1)
          var acc = Double.PositiveInfinity
          var j   = off(v)
          while (j < end) { acc = math.min(acc, x(adj(j)) + (if (byWgt) wgt(j) else 1.0)); j += 1 }
          val nx = math.min(old, acc)
          val d  = math.abs(nx - old)
          if (d > maxDelta) maxDelta = d // ∞ − ∞ is NaN, never greater: unchanged
          if (nx != old) {
            changed += 1
            if (mark != null) g.foreachOut(v)(set)
          }
          xw(v) = nx
        } else xw(v) = old
        v += 1
      }
      Swept(maxDelta, changed)
    }
  }
}
