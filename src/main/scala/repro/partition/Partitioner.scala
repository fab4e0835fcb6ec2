package repro.partition

import repro.graph.DiGraph

/** Graph partitioning / community detection used by GoGraph's divide phase
  * (paper §IV-A "Divide other vertices", Fig 13).
  *
  * `partition(g, k)` returns a dense community id (0 until K) per vertex.
  * Community methods (Rabbit, Louvain) treat `k` as advisory and return
  * their natural community count; balanced methods (MetisLike, Fennel)
  * honor it.
  */
trait Partitioner extends Serializable {
  def name: String
  def partition(g: DiGraph, k: Int): Array[Int]
}

object Partitioner {
  /** Compact labels (each >= 0) to dense ids 0 until K, preserving
    * first-seen order: parts are numbered by their smallest member. */
  def compact(labels: Array[Int]): Array[Int] = {
    val id   = new Array[Int](numParts(labels))
    java.util.Arrays.fill(id, -1)
    val out  = new Array[Int](labels.length)
    var next = 0
    var i    = 0
    while (i < labels.length) {
      val l = labels(i)
      if (id(l) < 0) { id(l) = next; next += 1 }
      out(i) = id(l)
      i += 1
    }
    out
  }

  /** Stable counting sort of the indices of `keys` (each in `0 until k`):
    * (bucket offsets, indices grouped by key in ascending order). The one
    * sort of vertices by an integer key: every vertex ranking uses it.
    */
  def bucket(keys: Array[Int], k: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](k + 1)
    var i   = 0
    while (i < keys.length) { off(keys(i) + 1) += 1; i += 1 }
    var b   = 0
    while (b < k) { off(b + 1) += off(b); b += 1 }
    val fill = off.clone()
    val out  = new Array[Int](keys.length)
    i = 0
    while (i < keys.length) { out(fill(keys(i))) = i; fill(keys(i)) += 1; i += 1 }
    (off, out)
  }

  /** The indices of `keys` (each >= 0) in ascending (key, index) order. */
  def ranking(keys: Array[Int]): Array[Int] = bucket(keys, numParts(keys))._2

  /** Number of distinct partitions in a dense labeling: the largest label + 1. */
  def numParts(labels: Array[Int]): Int = {
    var max = -1
    var i   = 0
    while (i < labels.length) { if (labels(i) > max) max = labels(i); i += 1 }
    max + 1
  }

  /** Edges whose endpoints share a partition (locality quality measure). */
  def internalEdges(g: DiGraph, labels: Array[Int]): Long = {
    var c = 0L
    g.walkEdges((u, v, _) => if (labels(u) == labels(v)) c += 1)
    c
  }
}

/** Edge counts from one vertex to each neighbouring community (ids in
  * `0 until n`): a dense count per community plus the list of the
  * communities counted since the last `clear()`, which resets only those.
  */
private[partition] final class Tally(n: Int) {
  private val count   = new Array[Int](n)
  private val touched = new Array[Int](n)
  private var size    = 0
  def add(c: Int): Unit = { if (count(c) == 0) { touched(size) = c; size += 1 }; count(c) += 1 }
  def apply(c: Int): Int = count(c)
  def nonEmpty: Boolean = size > 0
  /** `f(community, count)` for each community counted, in first-counted order. */
  def foreach(f: (Int, Int) => Unit): Unit = {
    var i = 0
    while (i < size) { f(touched(i), count(touched(i))); i += 1 }
  }
  def clear(): Unit = while (size > 0) { size -= 1; count(touched(size)) = 0 }
}
