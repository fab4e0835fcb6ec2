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
    bisect(Partitioner.ranking(g.degrees), kk, 0, g, labels, new Array[Boolean](n))
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
      // grow the left side by BFS from the lowest-degree vertex (peripheral
      // seed); the BFS reaches all of vs, and every vertex past the target
      // goes right
      val grown = g.bfsOrder(vs, reached)((_, u) => labels(u) == base)
      var i = leftTarget
      while (i < grown.length) { labels(grown(i)) = base + leftParts; i += 1 }
      // one pass over vs splits it, keeping each half in (degree, id) order
      val left  = new Array[Int](leftTarget)
      val right = new Array[Int](vs.length - leftTarget)
      var l = 0; var r = 0
      i = 0
      while (i < vs.length) {
        val v = vs(i)
        if (labels(v) == base) { left(l) = v; l += 1 } else { right(r) = v; r += 1 }
        i += 1
      }
      bisect(left, leftParts, base, g, labels, reached)
      bisect(right, parts - leftParts, base + leftParts, g, labels, reached)
    }
}
