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
    var i = 0
    while (i < hdCount) { val v = byDeg(i); if (g.degree(v) > 0) isHd(v) = true; i += 1 }

    // residual degree after removing HD vertices and their edges; G' keeps
    // exactly the mP edges between non-HD vertices
    val residDeg = new Array[Int](n)
    var mP       = 0
    g.walkEdges { (u, v, _) =>
      if (!isHd(u) && !isHd(v)) { residDeg(u) += 1; residDeg(v) += 1; mP += 1 }
    }
    // both endpoints of a G' edge have residual degree >= 1, so neither is
    // isolated: G' is every other non-HD vertex
    val isIso = new Array[Boolean](n)
    val rest  = new Array[Int](n) // G' id -> global id, in rest(0 until nRest)
    val local = new Array[Int](n) // global -> G' id
    var nRest = 0
    var v     = 0
    while (v < n) {
      if (!isHd(v)) {
        if (residDeg(v) == 0) isIso(v) = true else { rest(nRest) = v; local(v) = nRest; nRest += 1 }
      }
      v += 1
    }

    // ---- Divide: split the remaining graph G' into subgraphs ----
    val pSrc = new Array[Int](mP); val pDst = new Array[Int](mP); val pWgt = new Array[Double](mP)
    var m    = 0
    g.walkEdges { (u, v, w) =>
      if (!isHd(u) && !isHd(v)) { pSrc(m) = local(u); pDst(m) = local(v); pWgt(m) = w; m += 1 }
    }
    val gPrime = DiGraph.fromArrays(nRest, pSrc, pDst, pWgt)
    val k      = math.max(1, (nRest + TargetPartSize - 1) / TargetPartSize)
    val labels = if (nRest == 0) Array.empty[Int] else cfg.partitioner.partition(gPrime, k)
    val numSub = Partitioner.numParts(labels)

    // bucket G' by subgraph once; members keep ascending G' id order, so a
    // subgraph's local ids break ties exactly as G' ids do
    val (vOff, members) = Partitioner.bucket(labels, numSub)
    val sub = new Array[Int](nRest) // G' id -> local id within its subgraph
    i = 0
    while (i < nRest) { sub(members(i)) = i - vOff(labels(members(i))); i += 1 }
    // each edge's subgraph if it is internal, numSub if it crosses; the
    // contracted graph's edges (internal ones become self-loops, which the
    // build drops)
    val eKey = new Array[Int](mP)
    val cSrc = new Array[Int](mP); val cDst = new Array[Int](mP)
    var e    = 0
    while (e < mP) {
      cSrc(e) = labels(pSrc(e)); cDst(e) = labels(pDst(e))
      eKey(e) = if (cSrc(e) == cDst(e)) cSrc(e) else numSub
      e += 1
    }
    val (eOff, byLabel) = Partitioner.bucket(eKey, numSub + 1)

    // ---- Conquer: order each subgraph as its own induced graph ----
    val subOrders = new Array[Array[Int]](numSub)
    var s = 0
    while (s < numSub) {
      val from = eOff(s); val size = eOff(s + 1) - from
      val src  = new Array[Int](size); val dst = new Array[Int](size); val wgt = new Array[Double](size)
      i = 0
      while (i < size) {
        val e = byLabel(from + i)
        src(i) = sub(pSrc(e)); dst(i) = sub(pDst(e)); wgt(i) = pWgt(e)
        i += 1
      }
      subOrders(s) = insertionOrder(DiGraph.fromArrays(vOff(s + 1) - vOff(s), src, dst, wgt))
      s += 1
    }

    // ---- Combine: order G' contracted by subgraph with the same routine ----
    val superOrder = insertionOrder(DiGraph.fromArrays(numSub, cSrc, cDst, pWgt))

    // splice: subgraph orders concatenated in super-vertex order
    // (Algorithm 1 lines 21–29: adding the previous subgraph's max val is
    // exactly concatenation once vals are normalized to ranks)
    val ins = new ValInserter(n)
    i = 0
    while (i < numSub) {
      val s = superOrder(i); val o = subOrders(s)
      var j = 0
      while (j < o.length) { ins.seed(rest(members(vOff(s) + o(j)))); j += 1 }
      i += 1
    }

    // ---- Insert high-degree, then isolated vertices (lines 30–35) ----
    val insertG = new InsertPlaced(g, ins)
    i = 0
    while (i < hdCount) { if (isHd(byDeg(i))) insertG(byDeg(i)); i += 1 } // descending degree
    v = 0
    while (v < n) { if (isIso(v)) insertG(v); v += 1 }

    VertexOrder.fromOrder(ins.result())
  }

  /** Algorithm 1's insertion procedure on `h`: a BFS candidate stream
    * ([[DiGraph.bfsOrder]]) from each unvisited seed in ascending
    * (in-degree, id) order, each candidate inserted by
    * [[InsertPlaced]]. Every edge counts once, whatever its weight, as in
    * M(·). Returns `h`'s vertices in the chosen order.
    */
  private def insertionOrder(h: DiGraph): Array[Int] = {
    val ins    = new ValInserter(h.numVertices)
    val insert = new InsertPlaced(h, ins)
    val stream = h.bfsOrder(Partitioner.ranking(h.inDegrees))((_, _) => true)
    var i = 0
    while (i < stream.length) { insert(stream(i)); i += 1 }
    ins.result()
  }

  /** Inserts a vertex of `h` into `ins` against its placed in- and
    * out-neighbors in `h`, one entry per edge, gathered into two buffers
    * that grow to the largest such list.
    */
  private final class InsertPlaced(h: DiGraph, ins: ValInserter) {
    private var inBuf  = new Array[Int](16)
    private var outBuf = new Array[Int](16)
    private var nIn    = 0
    private var nOut   = 0
    private val addIn  = (u: Int) => if (ins.placed(u)) {
      if (nIn == inBuf.length) inBuf = java.util.Arrays.copyOf(inBuf, 2 * nIn)
      inBuf(nIn) = u; nIn += 1
    }
    private val addOut = (u: Int) => if (ins.placed(u)) {
      if (nOut == outBuf.length) outBuf = java.util.Arrays.copyOf(outBuf, 2 * nOut)
      outBuf(nOut) = u; nOut += 1
    }

    def apply(v: Int): Unit = {
      nIn = 0; nOut = 0
      h.foreachIn(v)(addIn)
      h.foreachOut(v)(addOut)
      ins.insert(v, inBuf, nIn, outBuf, nOut)
    }
  }
}

/** Default-configuration GoGraph (top 0.2% HD, Rabbit-Partition divide). */
object GoGraph extends GoGraphReorder(GoGraphConfig())
