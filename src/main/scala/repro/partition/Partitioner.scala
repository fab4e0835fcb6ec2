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
  /** Compact arbitrary labels to dense ids 0 until K, preserving first-seen
    * order: parts are numbered by their smallest member. */
  def compact(labels: Array[Int]): Array[Int] = {
    val map = scala.collection.mutable.HashMap.empty[Int, Int]
    labels.map(l => map.getOrElseUpdate(l, map.size))
  }

  /** Stable counting sort of the indices of `keys` (each in `0 until k`):
    * (bucket offsets, indices grouped by key in ascending order). */
  def bucket(keys: Array[Int], k: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](k + 1)
    keys.foreach(key => off(key + 1) += 1)
    (0 until k).foreach(b => off(b + 1) += off(b))
    val fill = off.clone()
    val out  = new Array[Int](keys.length)
    keys.indices.foreach { i => out(fill(keys(i))) = i; fill(keys(i)) += 1 }
    (off, out)
  }

  /** Number of distinct partitions in a dense labeling. */
  def numParts(labels: Array[Int]): Int = if (labels.isEmpty) 0 else labels.max + 1

  /** Edges whose endpoints share a partition (locality quality measure). */
  def internalEdges(g: DiGraph, labels: Array[Int]): Long = {
    var c = 0L
    g.foreachEdge((u, v, _) => if (labels(u) == labels(v)) c += 1)
    c
  }
}
