package repro.partition

import repro.graph.DiGraph

/** Metis-style balanced k-way partitioning via recursive BFS bisection.
  *
  * A faithful Metis reimplementation (multilevel heavy-edge coarsening +
  * Kernighan–Lin refinement) is out of proportion for a divide step whose
  * quality the paper shows to be interchangeable with Rabbit/Louvain
  * (Fig 13); this substitute keeps Metis's two observable properties —
  * balanced part sizes and locality (BFS region growing keeps connected
  * neighborhoods together) — and is deterministic.
  */
object MetisLike extends Partitioner {
  val name = "Metis"

  def partition(g: DiGraph, k: Int): Array[Int] = {
    val n = g.numVertices
    if (n == 0) return Array.empty
    val kk     = math.max(1, math.min(k, n))
    val labels = new Array[Int](n)
    bisect(Partitioner.ranking(Array.tabulate(n)(g.degree)), kk, 0, g, labels, new Array[Boolean](n))
    Partitioner.compact(labels)
  }

  /** Split `vs`, in ascending (degree, id) order, into `parts` labels
    * starting at `base`, writing `labels`. Every vertex of `vs` is labelled
    * `base` on entry, and no other vertex has a label in
    * `base until base + parts`. `reached` is the scratch space every
    * bisection's BFS shares.
    */
  private def bisect(vs: Array[Int], parts: Int, base: Int, g: DiGraph, labels: Array[Int],
                     reached: Array[Boolean]): Unit =
    if (parts > 1 && vs.length > 1) {
      val leftParts  = parts / 2
      val leftTarget = (vs.length.toLong * leftParts / parts).toInt.max(1)
      // grow the left side by BFS from the lowest-degree vertex (peripheral seed)
      val grown = g.bfsOrder(vs, reached)((_, u) => labels(u) == base)
      grown.drop(leftTarget).foreach(labels(_) = base + leftParts)
      // filtering keeps each half in (degree, id) order
      bisect(vs.filter(labels(_) == base), leftParts, base, g, labels, reached)
      bisect(vs.filter(labels(_) == base + leftParts), parts - leftParts, base + leftParts, g, labels, reached)
    }
}
