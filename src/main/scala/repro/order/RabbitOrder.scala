package repro.order

import repro.graph.DiGraph
import repro.partition.{Partitioner, RabbitPartition}

/** Rabbit Order (Arai et al., IPDPS'16) — locality-first reordering.
  *
  * Communities from the incremental-aggregation pass ([[RabbitPartition]])
  * are laid out contiguously (the original walks the merge dendrogram
  * depth-first; laying each flat community out along a BFS is the same
  * cache-level effect). Communities appear in order of their smallest member
  * id; members follow a BFS from the community's lowest-degree vertex, so
  * tightly connected vertices land on nearby subscripts.
  */
object RabbitOrder extends Reorder {
  val name = "Rabbit"

  def order(g: DiGraph): VertexOrder = {
    val labels = RabbitPartition.partition(g, 0)
    // labels number communities by their smallest member, so ranking by
    // label lays them out in that order; within one, seeds go by (degree, id)
    val byDeg = Partitioner.ranking(g.degrees)
    val label = new Array[Int](byDeg.length)
    var i     = 0
    while (i < byDeg.length) { label(i) = labels(byDeg(i)); i += 1 }
    val seeds = Partitioner.ranking(label)
    i = 0
    while (i < seeds.length) { seeds(i) = byDeg(seeds(i)); i += 1 }
    VertexOrder.fromOrder(g.bfsOrder(seeds)((v, u) => labels(u) == labels(v)))
  }
}
