package repro.engine

import repro.graph.DiGraph
import repro.order.VertexOrder

/** The reference model of the engines: the sweep as it was before each
  * program family got one inlined loop. Each program is a per-vertex fold
  * over its in-edges, dividing x_u by |OUT(u)| per edge, and an `apply` called
  * per vertex; every vertex is folded every round. Sync, async and the block
  * engine's supersteps (run one block after another on the driver) follow the
  * engines' round and convergence rules, so their states, rounds and
  * per-round (max |Δ|, changed) must equal the engines' bit for bit.
  */
object ReferenceSweep {

  /** Vertices in processing order with a copy of their in-edges in CSR form
    * (`off`/`adj`/`wgt` indexed by position in `vids`): the reference's own
    * storage, shared with no engine.
    */
  final case class Slice(vids: Array[Int], off: Array[Int], adj: Array[Int], wgt: Array[Double])

  object Slice {

    /** The in-edges of `vids`, in that order, from graph `g`. */
    def of(g: DiGraph, vids: Array[Int]): Slice = {
      val off = vids.map(g.inDegree).scanLeft(0)(_ + _)
      val adj = new Array[Int](off.last); val wgt = new Array[Double](off.last)
      vids.indices.foreach { i =>
        System.arraycopy(g.inAdj, g.inOff(vids(i)), adj, off(i), g.inDegree(vids(i)))
        System.arraycopy(g.inWgt, g.inOff(vids(i)), wgt, off(i), g.inDegree(vids(i)))
      }
      Slice(vids, off, adj, wgt)
    }
  }

  /** A program's update as a fold over one vertex's in-edges and an apply. */
  trait Update {
    def fold(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double
    def apply(v: Int, old: Double, acc: Double, source: Int): Double
  }

  /** Σ x_u / |OUT(u)| from 0. */
  private def sumOverOutDegree(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double = {
    var acc = 0.0
    var j   = from
    while (j < until) { val u = blk.adj(j); acc = acc + read(u) / outDeg(u); j += 1 }
    acc
  }

  /** min (x_u + w) from +∞, with w the edge weight or `c`. */
  private def minPlus(blk: Slice, from: Int, until: Int, read: Array[Double], c: Option[Double]): Double = {
    var acc = Double.PositiveInfinity
    var j   = from
    while (j < until) { acc = math.min(acc, read(blk.adj(j)) + c.getOrElse(blk.wgt(j))); j += 1 }
    acc
  }

  /** The update of each of the four programs, written as before the inlining. */
  def update(prog: VertexProgram): Update = prog match {
    case p: PageRank => new Update {
      def fold(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double =
        sumOverOutDegree(blk, from, until, read, outDeg)
      def apply(v: Int, old: Double, acc: Double, s: Int): Double = (1.0 - p.damping) + p.damping * acc
    }
    case PHP => new Update {
      def fold(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double =
        sumOverOutDegree(blk, from, until, read, outDeg)
      def apply(v: Int, old: Double, acc: Double, s: Int): Double = if (v == s) 1.0 else PHP.penalty * acc
    }
    case SSSP => new Update {
      def fold(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double =
        minPlus(blk, from, until, read, None)
      def apply(v: Int, old: Double, acc: Double, s: Int): Double = math.min(old, acc)
    }
    case BFS => new Update {
      def fold(blk: Slice, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double =
        minPlus(blk, from, until, read, Some(1.0))
      def apply(v: Int, old: Double, acc: Double, s: Int): Double = math.min(old, acc)
    }
  }

  /** One sweep over `blk`: every vertex folds from `read` and writes `write`. */
  def sweep(blk: Slice, u: Update, outDeg: Array[Int], read: Array[Double], write: Array[Double],
            source: Int): Swept = {
    var maxDelta = 0.0
    var changed  = 0
    var i = 0
    while (i < blk.vids.length) {
      val v   = blk.vids(i)
      val acc = u.fold(blk, blk.off(i), blk.off(i + 1), read, outDeg)
      val old = read(v)
      val nx  = u.apply(v, old, acc, source)
      val d   = math.abs(nx - old)
      if (d > maxDelta) maxDelta = d
      if (nx != old) changed += 1
      write(v) = nx
      i += 1
    }
    Swept(maxDelta, changed)
  }

  private def init(g: DiGraph, prog: VertexProgram, source: Int): Array[Double] =
    Array.tabulate(g.numVertices)(prog.init(_, source))

  def sync(g: DiGraph, prog: VertexProgram, source: Int, maxRounds: Int = 100000): RunResult = {
    val n   = g.numVertices
    val blk = Slice.of(g, Array.range(0, n))
    var x   = init(g, prog, source)
    var xn  = new Array[Double](n)
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      converged = sweep(blk, update(prog), g.outDegrees, x, xn, source).maxDelta <= prog.tol
      val t = x; x = xn; xn = t
      rounds += 1
    }
    RunResult(x, rounds, converged)
  }

  /** Async, with each round's (max |Δ|, changed) appended to `trace`. */
  def async(g: DiGraph, prog: VertexProgram, order: VertexOrder, source: Int,
            trace: collection.mutable.Buffer[(Double, Int)], maxRounds: Int = 100000): RunResult = {
    val blk = Slice.of(g, order.order)
    val x   = init(g, prog, source)
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      val s = sweep(blk, update(prog), g.outDegrees, x, x, source)
      trace += ((s.maxDelta, s.changed))
      converged = s.maxDelta <= prog.tol
      rounds += 1
    }
    RunResult(x, rounds, converged)
  }

  /** The block engine's supersteps over `order` cut into `numBlocks` ranges:
    * each block sweeps a private copy of the previous superstep's states.
    */
  def blocks(g: DiGraph, prog: VertexProgram, order: VertexOrder, source: Int, numBlocks: Int,
             maxRounds: Int = 100000): RunResult = {
    val n  = g.numVertices
    val nb = math.max(1, math.min(numBlocks, n))
    val bs = (0 until nb).map { b =>
      Slice.of(g, order.order.slice((b.toLong * n / nb).toInt, ((b + 1).toLong * n / nb).toInt))
    }
    var x = init(g, prog, source)
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      val next = x.clone()
      var maxDelta = 0.0
      bs.foreach { blk =>
        val local = x.clone()
        maxDelta = math.max(maxDelta, sweep(blk, update(prog), g.outDegrees, local, local, source).maxDelta)
        blk.vids.foreach(v => next(v) = local(v))
      }
      x = next
      rounds += 1
      converged = maxDelta <= prog.tol
    }
    RunResult(x, rounds, converged)
  }
}
