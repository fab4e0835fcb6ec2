package repro.engine

/** A monotonic vertex update function F(·) (paper §II–III) in gather/apply
  * form, shared by all engines (sequential sync/async, Spark block-async).
  *
  * One vertex update is `apply(v, old, fold(gather over in-edges), source)`
  * where the fold starts at [[identity]]. All engines run it through one
  * sweep kernel ([[Sweep]]); they differ only in *which* neighbor state
  * version feeds `gather`: previous round (Eq. 1, synchronous) or current
  * round where available (Eq. 2, asynchronous).
  */
trait VertexProgram extends Serializable {
  def name: String

  /** Initial state of vertex v (source = -1 for unsourced algorithms). */
  def init(v: Int, source: Int): Double

  /** Fold identity for the in-edge accumulator. */
  def identity: Double

  /** Fold one in-edge u→v: `acc ⊕ (state(u), weight, |OUT(u)|)`. */
  def gather(acc: Double, nbrState: Double, w: Double, nbrOutDeg: Int): Double

  /** New state from the old state and the folded accumulator. */
  def apply(v: Int, old: Double, acc: Double, source: Int): Double

  /** Convergence tolerance on the per-round max |Δx| (0 = exact). */
  def tol: Double

  /** True if edges must be symmetrized before running (CC). */
  def needsSymmetric: Boolean = false

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
  val identity: Double              = 0.0
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = acc + x / od
  def apply(v: Int, old: Double, acc: Double, s: Int): Double    = (1.0 - d) + d * acc
}
object PageRank extends PageRank(0.85, 1e-6)

/** Single-source shortest path (min-plus over in-edges). */
object SSSP extends VertexProgram {
  val name                          = "SSSP"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val identity: Double              = Double.PositiveInfinity
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = math.min(acc, x + w)
  def apply(v: Int, old: Double, acc: Double, s: Int): Double    = math.min(old, acc)
}

/** Breadth-first search levels (SSSP with unit weights). */
object BFS extends VertexProgram {
  val name                          = "BFS"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) 0.0 else Double.PositiveInfinity
  val identity: Double              = Double.PositiveInfinity
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = math.min(acc, x + 1.0)
  def apply(v: Int, old: Double, acc: Double, s: Int): Double    = math.min(old, acc)
}

/** Connected components: min-label propagation over the symmetrized graph. */
object CC extends VertexProgram {
  val name                          = "CC"
  val sourced                       = false
  val tol                           = 0.0
  override val needsSymmetric       = true
  def init(v: Int, s: Int): Double  = v.toDouble
  val identity: Double              = Double.PositiveInfinity
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = math.min(acc, x)
  def apply(v: Int, old: Double, acc: Double, s: Int): Double    = math.min(old, acc)
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
  val identity: Double              = 0.0
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = acc + x / od
  def apply(v: Int, old: Double, acc: Double, s: Int): Double =
    if (v == s) 1.0 else penalty * acc
}

/** Single-source widest path: x_v = max over in-edges of min(x_u, w). */
object SSWP extends VertexProgram {
  val name                          = "SSWP"
  val sourced                       = true
  val tol                           = 0.0
  def init(v: Int, s: Int): Double  = if (v == s) Double.PositiveInfinity else 0.0
  val identity: Double              = 0.0
  def gather(acc: Double, x: Double, w: Double, od: Int): Double = math.max(acc, math.min(x, w))
  def apply(v: Int, old: Double, acc: Double, s: Int): Double =
    if (v == s) old else math.max(old, acc)
}
