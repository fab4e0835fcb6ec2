package repro.order

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DiGraph, GraphGen, RandomGraphs}

class GorderSpec extends AnyFunSuite {

  test("returns a permutation on random graphs") {
    val g = GraphGen.rmat(300, 2400, seed = 30)
    val o = Gorder.order(g)
    assert(o.order.sorted.toSeq == (0 until 300))
  }

  test("handles the empty graph") {
    assert(Gorder.order(DiGraph.unweighted(0, Seq.empty)).n == 0)
  }

  test("handles an edgeless graph") {
    // every vertex is a fallback seed: equal degrees, so ascending id
    val o = Gorder.order(DiGraph.unweighted(6, Seq.empty))
    assert(o.order.toSeq == (0 until 6))
  }

  test("handles a single vertex") {
    val o = Gorder.order(DiGraph.unweighted(1, Seq.empty))
    assert(o.order.toSeq == Seq(0))
  }

  test("neighbors of the start vertex follow it closely on a star") {
    val g = DiGraph.unweighted(6, Seq((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)))
    val o = Gorder.order(g)
    assert(o.order(0) == 0, "highest-degree vertex seeds the order")
  }

  test("keeps the two halves of a disconnected pair of cliques contiguous") {
    // clique A = {0,1,2}, clique B = {3,4,5} (directed both ways)
    val ed = for {
      s <- Seq(Seq(0, 1, 2), Seq(3, 4, 5)); u <- s; v <- s if u != v
    } yield (u, v)
    val g = DiGraph.unweighted(6, ed)
    val o = Gorder.order(g)
    val posA = Seq(0, 1, 2).map(o.pos(_))
    val posB = Seq(3, 4, 5).map(o.pos(_))
    // one clique fully precedes the other
    assert(posA.max < posB.min || posB.max < posA.min,
      s"cliques interleaved: A=$posA B=$posB")
  }

  test("average neighbor distance beats a random order on a community graph") {
    val g = communityGraph(seed = 31)
    val go = Gorder.order(g)
    val ro = VertexOrder.fromOrder(GraphGen.randomPermutation(g.numVertices, seed = 32))
    assert(avgNeighborDist(g, go) < avgNeighborDist(g, ro),
      "Gorder should improve locality over a random order")
  }

  test("is deterministic") {
    val g = GraphGen.rmat(200, 1500, seed = 33)
    assert(Gorder.order(g).order.toSeq == Gorder.order(g).order.toSeq)
  }

  test("window size 1 still yields a permutation") {
    val g = GraphGen.rmat(100, 600, seed = 34)
    val o = new Gorder(window = 1).order(g)
    assert(o.order.sorted.toSeq == (0 until 100))
  }

  test("rejects a negative window") {
    intercept[IllegalArgumentException] { new Gorder(window = -1) }
  }

  test("matches the lazy-heap reference bit for bit") {
    val graphs = Seq(
      "rmat(300, 2400, 30)"       -> GraphGen.rmat(300, 2400, seed = 30),
      "rmat(200, 1500, 33)"       -> GraphGen.rmat(200, 1500, seed = 33),
      "erdosRenyi(500, 1500, 7)"  -> RandomGraphs.erdosRenyi(500, 1500, seed = 7),
      "citation(3000, 5, 3)"      -> GraphGen.citation(3000, 5, seed = 3),
      "community(31)"             -> communityGraph(seed = 31),
      "edgeless(6)"               -> DiGraph.unweighted(6, Seq.empty),
      "star(6)"                   -> DiGraph.unweighted(6, (1 to 5).map(v => (0, v))),
    ) ++ GraphGen.datasetNames.map(d => s"datasetSmall($d)" -> GraphGen.datasetSmall(d))
    for ((label, g) <- graphs; window <- Seq(1, 5, 8); hubCap <- Seq(2, 64)) {
      val got  = new Gorder(window, hubCap).order(g).order.toSeq
      val want = lazyHeapOrder(g, window, hubCap).toSeq
      assert(got == want, s"$label window=$window hubCap=$hubCap")
    }
  }

  test("components of equal degree seed by (degree desc, id asc)") {
    // paths 5-3-4 and 2-0-1: centres 3 and 0 have degree 2, the rest degree 1
    val g = DiGraph.unweighted(6, Seq((5, 3), (3, 4), (2, 0), (0, 1)))
    val o = Gorder.order(g).order.toSeq
    assert(o.head == 0, s"first seed: $o")
    assert(o.indexOf(3) == 3, s"second seed: $o")
    assert(o == lazyHeapOrder(g, 5, 64).toSeq)
  }

  test("parallel edges raise a key once per edge") {
    // after seed 0, vertex 3 (two parallel edges) outscores 1 and 2 (one each)
    val g = DiGraph.unweighted(4, Seq((0, 1), (0, 2), (0, 3), (0, 3), (1, 2)))
    val o = Gorder.order(g).order.toSeq
    assert(o.take(2) == Seq(0, 3), s"$o")
    assert(o == lazyHeapOrder(g, 5, 64).toSeq)
  }

  /** The classic lazy-heap Gorder: a boxed max-heap by (key, -id) that keeps
    * stale entries and drops them on pop, with a linear scan for the
    * highest-degree unplaced vertex when the heap runs dry.
    */
  private def lazyHeapOrder(g: DiGraph, window: Int, hubCap: Int): Array[Int] = {
    val n      = g.numVertices
    val key    = new Array[Int](n)
    val placed = new Array[Boolean](n)
    val pq = mutable.PriorityQueue.empty[(Int, Int)](
      Ordering.by[(Int, Int), (Int, Int)] { case (k, v) => (k, -v) })

    def bump(center: Int, delta: Int): Unit = {
      def touch(u: Int): Unit =
        if (!placed(u)) {
          key(u) += delta
          if (delta > 0) pq.enqueue((key(u), u))
        }
      g.foreachNeighbor(center)(touch)
      g.foreachIn(center) { w =>
        if (g.outDegree(w) <= hubCap) g.foreachOut(w)(touch)
      }
    }

    val out  = new Array[Int](n)
    val win  = mutable.Queue.empty[Int]
    var next = 0

    def freshSeed(): Int = {
      var best = -1
      while (next < n && placed(next)) next += 1
      var v = next
      while (v < n) {
        if (!placed(v) && (best == -1 || g.degree(v) > g.degree(best))) best = v
        v += 1
      }
      best
    }

    var i = 0
    while (i < n) {
      var chosen = -1
      while (chosen == -1 && pq.nonEmpty) {
        val (k, v) = pq.dequeue()
        if (!placed(v) && k == key(v)) chosen = v
      }
      if (chosen == -1) chosen = freshSeed()
      placed(chosen) = true
      out(i) = chosen
      win.enqueue(chosen)
      bump(chosen, +1)
      if (win.size > window) bump(win.dequeue(), -1)
      i += 1
    }
    out
  }

  private def communityGraph(seed: Long): DiGraph = {
    val rnd = new scala.util.Random(seed)
    val es = for {
      c <- 0 until 10
      _ <- 0 until 120
    } yield {
      val base = c * 30
      (base + rnd.nextInt(30), base + rnd.nextInt(30))
    }
    DiGraph.unweighted(300, es.filter(e => e._1 != e._2))
  }

  private def avgNeighborDist(g: DiGraph, o: VertexOrder): Double = {
    var sum = 0.0; var cnt = 0L
    g.foreachEdge((u, v, _) => { sum += math.abs(o.pos(u) - o.pos(v)); cnt += 1 })
    if (cnt == 0) 0.0 else sum / cnt
  }
}
