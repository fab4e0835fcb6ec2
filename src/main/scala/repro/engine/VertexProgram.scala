package repro.engine

/** A monotonic vertex update function F(·) (paper §II–III) in fold/apply
  * form, shared by all engines (sequential sync/async, Spark block-async).
  *
  * One vertex update is `apply(v, old, fold over v's in-edges, source)`. All
  * engines run it through one sweep kernel ([[Sweep]]); they differ only in
  * *which* neighbor state version the [[fold]] reads: previous round (Eq. 1,
  * synchronous) or current round where available (Eq. 2, asynchronous).
  */
trait VertexProgram extends Serializable {
  def name: String

  /** Initial state of vertex v (source = -1 for unsourced algorithms). */
  def init(v: Int, source: Int): Double

  /** The in-edge fold: one of the [[Fold]] semirings, which owns the loop. */
  def fold: Fold

  /** New state from the old state and the folded accumulator. */
  def apply(v: Int, old: Double, acc: Double, source: Int): Double

  /** Convergence tolerance on the per-round max |Δx| (0 = exact). */
  def tol: Double

  /** True if edges must be symmetrized before running (CC). */
  def needsSymmetric: Boolean = false

  /** True if the algorithm needs a source vertex. */
  def sourced: Boolean
}

/** How a vertex folds its in-neighbours' states: the semirings of the six
  * programs (GraphBLAS's view, Kepner et al. 2016). Each case owns one tight
  * loop, so the per-edge step is monomorphic; [[Sweep]] calls a fold once per
  * vertex.
  */
sealed abstract class Fold extends Serializable {

  /** The fold, from this semiring's identity, of in-edges `[from, until)` of
    * `blk` in CSR order, reading source states from `read` and out-degrees
    * from `outDeg`. An empty range gives the identity.
    */
  def apply(blk: Block, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double
}

object Fold {

  /** Σ x_u / |OUT(u)| from 0 (PageRank, PHP). The division stays per edge:
    * multiplying by a precomputed 1/|OUT(u)| rounds differently.
    */
  case object SumOverOutDegree extends Fold {
    def apply(blk: Block, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double = {
      val adj = blk.adj
      var acc = 0.0
      var j   = from
      while (j < until) { val u = adj(j); acc = acc + read(u) / outDeg(u); j += 1 }
      acc
    }
  }

  /** min (x_u + w) from +∞ (SSSP). */
  case object MinPlusWeight extends Fold {
    def apply(blk: Block, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double = {
      val adj = blk.adj; val wgt = blk.wgt
      var acc = Double.PositiveInfinity
      var j   = from
      while (j < until) { acc = math.min(acc, read(adj(j)) + wgt(j)); j += 1 }
      acc
    }
  }

  /** min (x_u + c) from +∞, weights ignored (BFS: c = 1; CC: c = 0). */
  final case class MinPlus(c: Double) extends Fold {
    def apply(blk: Block, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double = {
      val adj = blk.adj
      var acc = Double.PositiveInfinity
      var j   = from
      while (j < until) { acc = math.min(acc, read(adj(j)) + c); j += 1 }
      acc
    }
  }

  /** max min(x_u, w) from 0 (SSWP). */
  case object MaxMinWeight extends Fold {
    def apply(blk: Block, from: Int, until: Int, read: Array[Double], outDeg: Array[Int]): Double = {
      val adj = blk.adj; val wgt = blk.wgt
      var acc = 0.0
      var j   = from
      while (j < until) { acc = math.max(acc, math.min(read(adj(j)), wgt(j))); j += 1 }
      acc
    }
  }
}

/** PageRank: x_v = (1−d) + d·Σ_{u∈IN(v)} x_u/|OUT(u)|, x⁰ = 0.
  * Starting from 0 the (Gauss–Seidel) iterates increase monotonically toward
  * the fixed point, satisfying the paper's monotonicity precondition.
  */
class PageRank(d: Double = 0.85, val tol: Double = 1e-6) extends VertexProgram {
  val name                          = "PageRank"
  /** Damping factor, exposed for callers that bound the error left at `tol`. */
  val damping: Double               = d
  val sourced                       = false
  def init(v: Int, s: Int): Double  = 0.0
  val fold: Fold                    = Fold.SumOverOutDegree
  def apply(v: Int, old: Double, acc: Double, s: Int): Double = (1.0 - d) + d * acc
}
object PageRank extends PageRank(0.85, 1e-6)

/** Single-source shortest path (min-plus over in-edges). */
object SSSP extends VertexProgram {
  val name                          = "SSSP"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val fold: Fold                    = Fold.MinPlusWeight
  def apply(v: Int, old: Double, acc: Double, s: Int): Double = math.min(old, acc)
}

/** Breadth-first search levels (SSSP with unit weights). */
object BFS extends VertexProgram {
  val name                          = "BFS"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val fold: Fold                    = Fold.MinPlus(1.0)
  def apply(v: Int, old: Double, acc: Double, s: Int): Double = math.min(old, acc)
}

/** Connected components: min-label propagation over the symmetrized graph. */
object CC extends VertexProgram {
  val name                          = "CC"
  val sourced                       = false
  val tol                           = 0.0
  override val needsSymmetric       = true
  def init(v: Int, s: Int): Double  = v.toDouble
  val fold: Fold                    = Fold.MinPlus(0.0)
  def apply(v: Int, old: Double, acc: Double, s: Int): Double = math.min(old, acc)
}

/** Penalized hitting probability: source pinned at 1,
  * x_v = c·Σ_{u∈IN(v)} x_u/|OUT(u)| — monotone increasing from 0.
  */
object PHP extends VertexProgram {
  val name                          = "PHP"
  /** Penalty factor c, exposed for callers that bound the error left at `tol`. */
  val penalty: Double               = 0.85
  val tol: Double                   = 1e-6
  val sourced                       = true
  def init(v: Int, s: Int): Double  = if (v == s) 1.0 else 0.0
  val fold: Fold                    = Fold.SumOverOutDegree
  def apply(v: Int, old: Double, acc: Double, s: Int): Double =
    if (v == s) 1.0 else penalty * acc
}

/** Single-source widest path: x_v = max over in-edges of min(x_u, w). */
object SSWP extends VertexProgram {
  val name                          = "SSWP"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) Double.PositiveInfinity else 0.0
  val fold: Fold                    = Fold.MaxMinWeight
  def apply(v: Int, old: Double, acc: Double, s: Int): Double =
    if (v == s) old else math.max(old, acc)
}
