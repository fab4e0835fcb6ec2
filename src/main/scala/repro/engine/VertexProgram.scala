package repro.engine

/** A monotonic vertex update function F(·) (paper §II–III), shared by all
  * engines (sequential sync/async, Spark block-async).
  *
  * A program is its initial states and its [[Fold]], the whole vertex update
  * with the program's constants as data. All engines run the fold's sweep
  * loop on the graph they are given; they differ only in *which* neighbor
  * state version it reads: previous round (Eq. 1, synchronous) or current
  * round where available (Eq. 2, asynchronous).
  */
trait VertexProgram extends Serializable {
  def name: String

  /** Initial state of vertex v (source = -1 for unsourced algorithms). */
  def init(v: Int, source: Int): Double

  /** The vertex update: one of the [[Fold]] families, which owns the loop. */
  def fold: Fold

  /** Convergence tolerance on the per-round max |Δx| (0 = exact). */
  def tol: Double

  /** True if the algorithm needs a source vertex. */
  def sourced: Boolean
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
  val fold: Fold                    = Fold.Sum(1.0 - d, d, pinSource = false)
}
object PageRank extends PageRank(0.85, 1e-6)

/** Single-source shortest path (min-plus over in-edges). */
object SSSP extends VertexProgram {
  val name                          = "SSSP"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val fold: Fold                    = Fold.MinPlus(weighted = true)
}

/** Breadth-first search levels (SSSP with unit weights). */
object BFS extends VertexProgram {
  val name                          = "BFS"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val fold: Fold                    = Fold.MinPlus(weighted = false)
}

/** Penalized hitting probability: source pinned at 1,
  * x_v = c·Σ_{u∈IN(v)} x_u/|OUT(u)| — monotone increasing from 0. The fold
  * computes 0 + c·Σ, the same bits: Σ is a sum of non-negative terms from +0.
  */
object PHP extends VertexProgram {
  val name                          = "PHP"
  /** Penalty factor c, exposed for callers that bound the error left at `tol`. */
  val penalty: Double               = 0.85
  val tol: Double                   = 1e-6
  val sourced                       = true
  def init(v: Int, s: Int): Double  = if (v == s) 1.0 else 0.0
  val fold: Fold                    = Fold.Sum(0.0, penalty, pinSource = true)
}
