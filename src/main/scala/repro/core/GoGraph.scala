package repro.core

import repro.graph.DiGraph
import repro.order.{DegreeSort, Reorder, VertexOrder}
import repro.partition.{Partitioner, RabbitPartition}

/** Configuration for [[GoGraphReorder]].
  *
  * @param hdFraction   fraction of vertices extracted as high-degree
  *                     (paper's rule of thumb: top 0.2%)
  * @param partitioner  divide-phase method (paper default: Rabbit-Partition)
  */
final case class GoGraphConfig(
    hdFraction: Double = 0.002,
    partitioner: Partitioner = RabbitPartition,
)

/** GoGraph (the paper's contribution, Algorithm 1).
  *
  * Divide: extract the top `hdFraction` high-degree vertices and their edges;
  * vertices left with no remaining edges become isolated; the rest, G', is
  * split into subgraphs by `partitioner`. Conquer: each subgraph, as its own
  * graph, is greedily inserted (BFS from the minimum-in-degree seed) at the
  * position maximizing the positive-edge count ([[ValInserter]]). Combine:
  * the same routine orders G' contracted by subgraph (parallel edges are the
  * weights); the orders are spliced, then high-degree and finally isolated
  * vertices are inserted into the global order, again maximizing M(·).
  */
class GoGraphReorder(cfg: GoGraphConfig = GoGraphConfig()) extends Reorder {
  val name = "GoGraph"

  /** Advisory subgraph size: partitioners that honor `k` get |V'| / 1024 parts. */
  private val TargetPartSize = 1024

  def order(g: DiGraph): VertexOrder = {
    val n = g.numVertices
    if (n == 0) return VertexOrder.identity(0)

    // ---- Divide: extract high-degree vertices ----
    val hdCount = math.min(n, math.max(1, math.round(n * cfg.hdFraction).toInt))
    val byDeg   = DegreeSort.ranking(g)
    val isHd    = new Array[Boolean](n)
    // only vertices that actually have edges qualify as "high-degree"
    byDeg.take(hdCount).foreach(v => if (g.degree(v) > 0) isHd(v) = true)

    // residual degree after removing HD vertices and their edges
    val residDeg = new Array[Int](n)
    g.foreachEdge { (u, v, _) =>
      if (!isHd(u) && !isHd(v)) { residDeg(u) += 1; residDeg(v) += 1 }
    }
    val isIso = Array.tabulate(n)(v => !isHd(v) && residDeg(v) == 0)

    val rest = Array.range(0, n).filter(v => !isHd(v) && !isIso(v))

    // ---- Divide: split the remaining graph G' into subgraphs ----
    // G' keeps exactly the edges between non-HD vertices: both endpoints of
    // such an edge have residual degree >= 1, so neither is isolated.
    val local = new Array[Int](n) // global -> local id within G'
    rest.indices.foreach(i => local(rest(i)) = i)
    val mP   = residDeg.sum / 2
    val pSrc = new Array[Int](mP); val pDst = new Array[Int](mP); val pWgt = new Array[Double](mP)
    var m    = 0
    g.foreachEdge { (u, v, w) =>
      if (!isHd(u) && !isHd(v)) { pSrc(m) = local(u); pDst(m) = local(v); pWgt(m) = w; m += 1 }
    }
    val gPrime = DiGraph.fromArrays(rest.length, pSrc, pDst, pWgt)
    val k      = math.max(1, (rest.length + TargetPartSize - 1) / TargetPartSize)
    val labels = if (rest.isEmpty) Array.empty[Int] else cfg.partitioner.partition(gPrime, k)
    val numSub = Partitioner.numParts(labels)

    // bucket G' by subgraph once; members keep ascending G' id order, so a
    // subgraph's local ids break ties exactly as G' ids do
    val (vOff, members) = Partitioner.bucket(labels, numSub)
    val sub = new Array[Int](rest.length) // G' id -> local id within its subgraph
    members.indices.foreach(i => sub(members(i)) = i - vOff(labels(members(i))))
    val eKey = Array.tabulate(mP) { e => // subgraph of an internal edge; numSub if it crosses
      val s = labels(pSrc(e)); if (labels(pDst(e)) == s) s else numSub
    }
    val (eOff, byLabel) = Partitioner.bucket(eKey, numSub + 1)

    // ---- Conquer: order each subgraph as its own induced graph ----
    val subOrders = Array.tabulate(numSub) { s =>
      val es = byLabel.slice(eOff(s), eOff(s + 1))
      insertionOrder(DiGraph.fromArrays(vOff(s + 1) - vOff(s),
        es.map(e => sub(pSrc(e))), es.map(e => sub(pDst(e))), es.map(pWgt)))
    }

    // ---- Combine: order G' contracted by subgraph (internal edges become
    // self-loops, which the build drops) with the same routine ----
    val superOrder = insertionOrder(DiGraph.fromArrays(numSub, pSrc.map(labels), pDst.map(labels), pWgt))

    // splice: subgraph orders concatenated in super-vertex order
    // (Algorithm 1 lines 21–29: adding the previous subgraph's max val is
    // exactly concatenation once vals are normalized to ranks)
    val ins = new ValInserter(n)
    superOrder.foreach(s => ins.seed(subOrders(s).iterator.map(i => rest(members(vOff(s) + i)))))

    // ---- Insert high-degree, then isolated vertices (lines 30–35) ----
    byDeg.filter(isHd(_)).foreach(insertPlaced(g, ins, _)) // descending degree
    Array.range(0, n).filter(isIso(_)).foreach(insertPlaced(g, ins, _))

    VertexOrder.fromOrder(ins.result())
  }

  /** Algorithm 1's insertion procedure on `h`: a BFS candidate stream
    * ([[DiGraph.bfsOrder]]) from each unvisited seed in ascending
    * (in-degree, id) order, each candidate inserted by
    * [[insertPlaced]]. Every edge counts once, whatever its weight, as in
    * M(·). Returns `h`'s vertices in the chosen order.
    */
  private def insertionOrder(h: DiGraph): Array[Int] = {
    val ins = new ValInserter(h.numVertices)
    val seeds = Partitioner.ranking(Array.tabulate(h.numVertices)(h.inDegree))
    h.bfsOrder(seeds)((_, _) => true).foreach(insertPlaced(h, ins, _))
    ins.result()
  }

  /** Insert `v` against its placed in- and out-neighbors in `h`, one entry
    * per edge.
    */
  private def insertPlaced(h: DiGraph, ins: ValInserter, v: Int): Unit = {
    def placed(walk: (Int => Unit) => Unit): Array[Int] = {
      val b = Array.newBuilder[Int]
      walk(u => if (ins.placed(u)) b += u)
      b.result()
    }
    ins.insert(v, placed(h.foreachIn(v)), placed(h.foreachOut(v)))
  }
}

/** Default-configuration GoGraph (top 0.2% HD, Rabbit-Partition divide). */
object GoGraph extends GoGraphReorder(GoGraphConfig())
