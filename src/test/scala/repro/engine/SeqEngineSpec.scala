package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DiGraph, GraphGen, RandomGraphs}
import repro.order.{DefaultOrder, VertexOrder}

/** Reference implementations for cross-checking the engines. */
object References {
  /** Dijkstra over in-edge-reversed adjacency (same edge direction semantics
    * as the engines: distance propagates along edge direction).
    */
  def dijkstra(g: DiGraph, source: Int): Array[Double] = {
    val dist = Array.fill(g.numVertices)(Double.PositiveInfinity)
    dist(source) = 0.0
    val pq = scala.collection.mutable.PriorityQueue.empty[(Double, Int)](
      Ordering.by[(Double, Int), Double](_._1).reverse)
    pq.enqueue((0.0, source))
    val done = new Array[Boolean](g.numVertices)
    val out  = Array.fill(g.numVertices)(List.empty[(Int, Double)])
    g.foreachEdge((u, v, w) => out(u) ::= ((v, w)))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (!done(u)) {
        done(u) = true
        out(u).foreach { case (v, w) =>
          if (d + w < dist(v)) { dist(v) = d + w; pq.enqueue((dist(v), v)) }
        }
      }
    }
    dist
  }

  /** BFS levels along edge direction. */
  def bfsLevels(g: DiGraph, source: Int): Array[Double] = {
    val lvl = Array.fill(g.numVertices)(Double.PositiveInfinity)
    lvl(source) = 0.0
    val q = scala.collection.mutable.Queue(source)
    while (q.nonEmpty) {
      val u = q.dequeue()
      g.foreachOut(u) { v =>
        if (lvl(v).isPosInfinity) { lvl(v) = lvl(u) + 1; q.enqueue(v) }
      }
    }
    lvl
  }

  /** Dense PageRank power iteration to high precision. */
  def pagerank(g: DiGraph, d: Double = 0.85, iters: Int = 300): Array[Double] = {
    val n = g.numVertices
    var x = Array.fill(n)(1.0 - d) // first Jacobi iterate from 0
    val outDeg = Array.tabulate(n)(g.outDegree)
    (0 until iters).foreach { _ =>
      val nx = Array.fill(n)(1.0 - d)
      g.foreachEdge((u, v, _) => nx(v) += d * x(u) / outDeg(u))
      x = nx
    }
    x
  }

  /** Dense PHP iteration to high precision: the source pinned at 1. */
  def php(g: DiGraph, source: Int, c: Double = 0.85, iters: Int = 300): Array[Double] = {
    val n = g.numVertices
    val outDeg = Array.tabulate(n)(g.outDegree)
    var x = Array.tabulate(n)(v => if (v == source) 1.0 else 0.0)
    (0 until iters).foreach { _ =>
      val nx = new Array[Double](n)
      g.foreachEdge((u, v, _) => nx(v) += c * x(u) / outDeg(u))
      nx(source) = 1.0
      x = nx
    }
    x
  }
}

class SeqEngineSpec extends AnyFunSuite {

  /** Paper Fig 2 graph: a=0, b=1, c=2, d=3, e=4. */
  private val fig2: DiGraph =
    DiGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 4, 4.0), (1, 4, 1.0), (4, 2, 1.0), (4, 3, 1.0)))

  test("Fig 2b: synchronous SSSP converges in 4 rounds") {
    val res = SeqEngine.sync(fig2, SSSP, source = 0)
    assert(res.rounds == 4)
    assert(res.converged)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("Fig 2c: asynchronous SSSP with default order converges in 3 rounds") {
    val res = SeqEngine.async(fig2, SSSP, DefaultOrder.order(fig2), source = 0)
    assert(res.rounds == 3)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("Fig 2d: asynchronous SSSP with reordered [a,b,e,c,d] converges in 2 rounds") {
    val o = VertexOrder.fromOrder(Array(0, 1, 4, 2, 3))
    val res = SeqEngine.async(fig2, SSSP, o, source = 0)
    assert(res.rounds == 2)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("sync SSSP matches Dijkstra on a random weighted graph") {
    val g = RandomGraphs.erdosRenyi(200, 1200, seed = 70)
    val src = 0
    val res = SeqEngine.sync(g, SSSP, src)
    assert(res.converged)
    assert(res.states.toSeq == References.dijkstra(g, src).toSeq)
  }

  test("async SSSP matches Dijkstra regardless of processing order") {
    val g = GraphGen.rmat(150, 900, seed = 71)
    val src = (0 until 150).maxBy(g.outDegree)
    Seq(DefaultOrder.order(g),
        VertexOrder.fromOrder(GraphGen.randomPermutation(150, seed = 72))).foreach { o =>
      val res = SeqEngine.async(g, SSSP, o, src)
      assert(res.states.toSeq == References.dijkstra(g, src).toSeq)
    }
  }

  test("sync BFS matches reference levels") {
    val g = GraphGen.rmat(200, 1400, seed = 73)
    val src = (0 until 200).maxBy(g.outDegree)
    val res = SeqEngine.sync(g, BFS, src)
    assert(res.states.toSeq == References.bfsLevels(g, src).toSeq)
  }

  test("async BFS matches reference levels") {
    val g = GraphGen.rmat(200, 1400, seed = 74)
    val src = (0 until 200).maxBy(g.outDegree)
    val res = SeqEngine.async(g, BFS, DefaultOrder.order(g), src)
    assert(res.states.toSeq == References.bfsLevels(g, src).toSeq)
  }

  test("sync PageRank matches dense power iteration") {
    val g = GraphGen.rmat(100, 800, seed = 76)
    val res = SeqEngine.sync(g, PageRank)
    val ref = References.pagerank(g)
    res.states.zip(ref).foreach { case (a, b) => assert(math.abs(a - b) < 1e-4, s"$a vs $b") }
  }

  test("async PageRank converges to the same fixed point as sync") {
    val g = GraphGen.rmat(150, 1200, seed = 77)
    val s = SeqEngine.sync(g, PageRank)
    val a = SeqEngine.async(g, PageRank, DefaultOrder.order(g))
    s.states.zip(a.states).foreach { case (x, y) => assert(math.abs(x - y) < 1e-4, s"$x vs $y") }
  }

  test("async PHP converges to the same fixed point as sync") {
    val g = GraphGen.rmat(150, 1200, seed = 78)
    val src = (0 until 150).maxBy(g.outDegree)
    val s = SeqEngine.sync(g, PHP, src)
    val a = SeqEngine.async(g, PHP, DefaultOrder.order(g), src)
    s.states.zip(a.states).foreach { case (x, y) => assert(math.abs(x - y) < 1e-4) }
  }

  test("async rounds never exceed sync rounds (paper's core claim)") {
    val g = GraphGen.datasetSmall("CP")
    val src = (0 until g.numVertices).maxBy(g.outDegree)
    Seq[(VertexProgram, Int)]((PageRank, -1), (SSSP, src), (BFS, src), (PHP, src)).foreach {
      case (prog, s) =>
        val sync  = SeqEngine.sync(g, prog, s).rounds
        val async = SeqEngine.async(g, prog, DefaultOrder.order(g), s).rounds
        assert(async <= sync, s"${prog.name}: async=$async > sync=$sync")
    }
  }

  test("topological order on a DAG: async SSSP converges in 2 rounds") {
    val g = GraphGen.citation(300, 4, seed = 80, noise = 0.0)
    // citation edges point new->old, so descending-id order is topological
    val topo = VertexOrder.fromOrder(Array.tabulate(300)(i => 299 - i))
    val src = 299 // newest vertex reaches everything it cites
    val res = SeqEngine.async(g, SSSP, topo, src)
    assert(res.rounds == 2, s"one propagating sweep + one detection sweep, got ${res.rounds}")
  }

  test("PageRank async iterates increase monotonically (Gauss–Seidel from 0)") {
    val g = GraphGen.rmat(80, 500, seed = 81)
    val o = DefaultOrder.order(g)
    var prev = SeqEngine.async(g, PageRank, o, maxRounds = 1).states
    (2 to 6).foreach { k =>
      val cur = SeqEngine.async(g, PageRank, o, maxRounds = k).states
      prev.zip(cur).foreach { case (p, c) => assert(c >= p - 1e-12, s"round $k decreased") }
      prev = cur
    }
  }

  test("maxRounds caps execution and reports non-convergence") {
    val g = GraphGen.rmat(100, 800, seed = 82)
    val res = SeqEngine.sync(g, PageRank, maxRounds = 2)
    assert(res.rounds == 2 && !res.converged)
  }

  test("async's per-round callback sees the states of a run capped at that round, bit for bit") {
    val g = GraphGen.rmat(200, 1400, seed = 84)
    val o = DefaultOrder.order(g)
    for ((prog, s) <- Seq[(VertexProgram, Int)](PageRank -> -1, SSSP -> (0 until 200).maxBy(g.outDegree))) {
      val seen = Array.newBuilder[(Int, Double, Int, Array[Double])]
      val res  = SeqEngine.async(g, prog, o, s, onRound = (k, d, c, x) => seen += ((k, d, c, x.clone())))
      val rs   = seen.result()
      assert(rs.map(_._1).toSeq == (1 to res.rounds), prog.name)
      var prev = SeqEngine.initialStates(prog, g.numVertices, s)
      rs.foreach { case (k, d, changed, x) =>
        val capped = SeqEngine.async(g, prog, o, s, maxRounds = k).states
        assert(x.map(java.lang.Double.doubleToRawLongBits).sameElements(
          capped.map(java.lang.Double.doubleToRawLongBits)), s"${prog.name} round $k")
        val deltas = prev.indices.map(v => math.abs(x(v) - prev(v))).filterNot(_.isNaN)
        assert(d == (0.0 +: deltas).max, s"${prog.name} round $k max |Δ|")
        assert(changed == prev.indices.count(v => x(v) != prev(v)), s"${prog.name} round $k changed")
        prev = x
      }
    }
  }

  test("PHP states stay within [0, 1]") {
    val g = GraphGen.rmat(100, 700, seed = 83)
    val src = (0 until 100).maxBy(g.outDegree)
    val res = SeqEngine.async(g, PHP, DefaultOrder.order(g), src)
    res.states.foreach(x => assert(x >= 0.0 && x <= 1.0 + 1e-9))
  }

  test("finiteSum ignores infinities") {
    val r = RunResult(Array(1.0, Double.PositiveInfinity, 2.0), 1, converged = true)
    assert(r.finiteSum == 3.0)
  }

  test("empty graph converges immediately") {
    val g = DiGraph.unweighted(0, Seq.empty)
    assert(SeqEngine.sync(g, PageRank).rounds == 1)
    assert(SeqEngine.async(g, PageRank, VertexOrder.identity(0)).rounds == 1)
  }

  test("sourced programs reject a source outside the graph, in sync and async") {
    val g = GraphGen.rmat(30, 120, seed = 120)
    val o = DefaultOrder.order(g)
    for (prog <- Seq[VertexProgram](SSSP, BFS, PHP); s <- Seq(-1, g.numVertices)) {
      intercept[IllegalArgumentException](SeqEngine.sync(g, prog, s))
      intercept[IllegalArgumentException](SeqEngine.async(g, prog, o, s))
    }
    intercept[IllegalArgumentException](SeqEngine.sync(g, SSSP)) // the default source is -1
  }
}
