package repro.graph

import scala.util.Random

/** Random graphs for tests; the reproduction's inputs come from [[GraphGen]]. */
object RandomGraphs {

  /** Erdős–Rényi G(n, m): m directed edges drawn uniformly (no self-loops),
    * weighted uniformly in [1, 10) like [[GraphGen]]'s generators.
    */
  def erdosRenyi(n: Int, m: Int, seed: Long): DiGraph = {
    val rnd = new Random(seed)
    val src = new Array[Int](m); val dst = new Array[Int](m); val wgt = new Array[Double](m)
    var e = 0
    while (e < m) {
      src(e) = rnd.nextInt(n); dst(e) = rnd.nextInt(n)
      while (dst(e) == src(e)) dst(e) = rnd.nextInt(n)
      wgt(e) = (rnd.nextInt(9) + 1).toDouble
      e += 1
    }
    DiGraph.fromArrays(n, src, dst, wgt)
  }
}
