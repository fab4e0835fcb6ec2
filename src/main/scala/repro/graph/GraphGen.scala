package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper (GoGraph, ICDE'24) evaluates on six downloaded real graphs; this
  * offline reproduction substitutes structurally-matched synthetic analogues
  * (see DESIGN.md §4). All generators are deterministic in their seed, so the
  * benches and the DuckDB oracle see identical inputs across runs.
  *
  * Edge weights are uniform in [1, 10) (integer-valued) so SSSP is
  * non-trivial; BFS/PageRank/PHP ignore weights.
  */
object GraphGen {

  private def weight(rnd: Random): Double = (rnd.nextInt(9) + 1).toDouble

  /** R-MAT recursive-quadrant generator (Chakrabarti et al.).
    *
    * Produces power-law web-like graphs. `n` is rounded up to a power of two
    * internally; generated endpoints ≥ n are resampled by modulo, which keeps
    * the degree skew. Duplicate edges are kept (real web graphs have parallel
    * links after ID mapping; the metric counts edges).
    */
  def rmat(n: Int, m: Int, seed: Long,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): DiGraph = {
    require(a + b + c <= 1.0 + 1e-9, "rmat quadrant probabilities exceed 1")
    val rnd   = new Random(seed)
    val scale = math.max(1, math.ceil(math.log(n.toDouble) / math.log(2.0)).toInt)
    val src   = new Array[Int](m); val dst = new Array[Int](m); val wgt = new Array[Double](m)
    var e     = 0
    while (e < m) {
      var u = 0; var v = 0; var bit = 0
      while (bit < scale) {
        val r = rnd.nextDouble()
        if (r < a) { /* top-left */ }
        else if (r < a + b) v |= (1 << bit)
        else if (r < a + b + c) u |= (1 << bit)
        else { u |= (1 << bit); v |= (1 << bit) }
        bit += 1
      }
      u %= n; v %= n
      if (u != v) { src(e) = u; dst(e) = v; wgt(e) = weight(rnd); e += 1 }
    }
    DiGraph.fromArrays(n, src, dst, wgt)
  }

  /** Barabási–Albert preferential attachment.
    *
    * Vertex t (for t >= mPer) attaches to `mPer` existing vertices sampled
    * proportionally to degree. Each attachment edge points old→new with
    * probability `pForward`, else new→old. With the default `pForward = 1`
    * the chronological default order is already optimal (every edge
    * positive); `pForward = 0.5` models the paper's NetworkX (undirected)
    * BA graphs, where the default order is "more optimal than real graphs"
    * (M/|E| = 0.5) but still improvable — reproducing Fig 12's diminished
    * reordering gains.
    */
  def barabasiAlbert(n: Int, mPer: Int, seed: Long, pForward: Double = 1.0): DiGraph = {
    require(n > mPer && mPer >= 1, s"need n > mPer >= 1, got n=$n mPer=$mPer")
    val rnd = new Random(seed)
    val m    = (n - mPer) * mPer
    // repeated-endpoint list ⇒ degree-proportional sampling: the mPer seed
    // vertices once, then both endpoints of every edge
    val pool = new Array[Int](mPer + 2 * m)
    var len  = 0
    while (len < mPer) { pool(len) = len; len += 1 }
    val src  = new Array[Int](m); val dst = new Array[Int](m); val wgt = new Array[Double](m)
    var e    = 0
    var t = mPer
    while (t < n) {
      val targets = mutable.Set.empty[Int]
      while (targets.size < mPer) targets += pool(rnd.nextInt(len))
      targets.foreach { old =>
        if (rnd.nextDouble() < pForward) { src(e) = old; dst(e) = t } else { src(e) = t; dst(e) = old }
        wgt(e) = weight(rnd)
        e += 1
        pool(len) = old; len += 1
      }
      var k = 0
      while (k < mPer) { pool(len) = t; len += 1; k += 1 }
      t += 1
    }
    DiGraph.fromArrays(n, src, dst, wgt)
  }

  /** Citation-network model: vertex t cites `mPer` earlier vertices
    * (preferential), edges new→old, IDs chronological.
    *
    * With chronological IDs every citation edge is *negative* under the
    * default order, so M(default)/|E| is tiny — matching the paper's
    * cit-Patents measurement (0.07). `noise` adds a fraction of old→new
    * edges (cycles + the small positive-edge floor).
    */
  def citation(n: Int, mPer: Int, seed: Long, noise: Double = 0.08): DiGraph =
    barabasiAlbert(n, mPer, seed, pForward = noise)

  /** Relabel all vertices with a seeded random permutation — used to destroy
    * a generator's chronological ID order when the real dataset's IDs carry
    * no such structure (e.g. LiveJournal crawl order). The graph is rebuilt
    * from its permuted edge stream, so each in-list is sorted by its
    * sources' old ids (unlike [[DiGraph.relabel]]); the analogues are these
    * graphs.
    */
  def shuffleIds(g: DiGraph, seed: Long): DiGraph = {
    val perm = randomPermutation(g.numVertices, seed)
    val src  = new Array[Int](g.numEdges); val dst = new Array[Int](g.numEdges)
    val wgt  = new Array[Double](g.numEdges)
    var e    = 0
    g.walkEdges { (u, v, w) => src(e) = perm(u); dst(e) = perm(v); wgt(e) = w; e += 1 }
    DiGraph.fromArrays(g.numVertices, src, dst, wgt)
  }

  /** Seeded Fisher–Yates permutation of 0 until n. */
  def randomPermutation(n: Int, seed: Long): Array[Int] = {
    val rnd  = new Random(seed)
    val perm = Array.tabulate(n)(identity)
    var i    = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    perm
  }

  /** Dataset abbreviations used in the paper's Table I. */
  val datasetNames: Seq[String] = Seq("IC", "SK", "GL", "WK", "CP", "LJ")

  /** Scaled synthetic analogue of a paper dataset (DESIGN.md §4).
    *
    * IC matches the paper's exact size (it is small); the rest are scaled to
    * laptop size while preserving structure class and default-ID quality.
    */
  def dataset(name: String): DiGraph = name match {
    case "IC" => shuffleIds(rmat(11358, 49138, seed = 11), seed = 111)
    case "SK" => shuffleIds(rmat(60000, 180000, seed = 22), seed = 222)
    case "GL" => shuffleIds(rmat(50000, 300000, seed = 33), seed = 333)
    case "WK" => shuffleIds(rmat(60000, 150000, seed = 44, a = 0.45, b = 0.22, c = 0.22), seed = 444)
    case "CP" => citation(50000, 5, seed = 55)
    case "LJ" => shuffleIds(barabasiAlbert(40000, 7, seed = 66), seed = 666)
    case other => throw new IllegalArgumentException(s"unknown dataset '$other'")
  }

  /** Small version of each analogue, for unit tests. */
  def datasetSmall(name: String): DiGraph = name match {
    case "IC" => shuffleIds(rmat(800, 3400, seed = 11), seed = 111)
    case "SK" => shuffleIds(rmat(1000, 3000, seed = 22), seed = 222)
    case "GL" => shuffleIds(rmat(900, 5400, seed = 33), seed = 333)
    case "WK" => shuffleIds(rmat(1000, 2500, seed = 44, a = 0.45, b = 0.22, c = 0.22), seed = 444)
    case "CP" => citation(1000, 5, seed = 55)
    case "LJ" => shuffleIds(barabasiAlbert(800, 7, seed = 66), seed = 666)
    case other => throw new IllegalArgumentException(s"unknown dataset '$other'")
  }
}
