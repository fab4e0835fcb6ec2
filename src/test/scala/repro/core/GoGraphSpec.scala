package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DiGraph, GraphGen, RandomGraphs}
import repro.order._
import repro.partition.{Fennel, Louvain, MetisLike, Partitioner, RabbitPartition}

class GoGraphSpec extends AnyFunSuite {

  private val fig2Graph: DiGraph = // paper Fig 2: a=0,b=1,c=2,d=3,e=4
    DiGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 4, 4.0), (1, 4, 1.0), (4, 2, 1.0), (4, 3, 1.0)))

  test("returns a permutation on random graphs") {
    val g = GraphGen.rmat(400, 3000, seed = 60)
    val o = GoGraph.order(g)
    assert(o.order.sorted.toSeq == (0 until 400))
  }

  test("handles the empty graph") {
    assert(GoGraph.order(DiGraph.unweighted(0, Seq.empty)).n == 0)
  }

  test("handles an edgeless graph") {
    val o = GoGraph.order(DiGraph.unweighted(6, Seq.empty))
    assert(o.order.sorted.toSeq == (0 until 6))
  }

  test("handles a single vertex") {
    assert(GoGraph.order(DiGraph.unweighted(1, Seq.empty)).order.toSeq == Seq(0))
  }

  test("handles a single edge") {
    val g = DiGraph.unweighted(2, Seq((0, 1)))
    val o = GoGraph.order(g)
    assert(Metric.positiveEdges(g, o) == 1L, "the only edge must be positive")
  }

  test("handles a 2-cycle (one edge must lose)") {
    val g = DiGraph.unweighted(2, Seq((0, 1), (1, 0)))
    val o = GoGraph.order(g)
    assert(Metric.positiveEdges(g, o) == 1L)
  }

  test("finds the all-positive order on the Fig 2 DAG") {
    val o = GoGraph.order(fig2Graph)
    assert(Metric.positiveEdges(fig2Graph, o) == 5L,
      s"expected all 5 edges positive, order=${o.order.toSeq}")
  }

  test("Theorem 2: M(GoGraph) >= |E|/2 on diverse graphs") {
    val graphs = Seq(
      GraphGen.rmat(300, 2400, seed = 61),
      RandomGraphs.erdosRenyi(300, 2400, seed = 62),
      GraphGen.citation(500, 4, seed = 63),
      GraphGen.shuffleIds(GraphGen.barabasiAlbert(300, 5, seed = 64), seed = 65),
      GraphGen.datasetSmall("CP"),
      GraphGen.datasetSmall("WK"),
    )
    graphs.foreach { g =>
      val m = Metric.positiveEdges(g, GoGraph.order(g))
      assert(m >= g.numEdges / 2.0, s"M=$m < |E|/2=${g.numEdges / 2.0}")
    }
  }

  test("recovers a near-topological order on the citation DAG analogue") {
    val g = GraphGen.citation(800, 5, seed = 66, noise = 0.0) // a pure DAG
    val r = Metric.ratio(g, GoGraph.order(g))
    assert(r > 0.9, s"on a DAG GoGraph should get close to all-positive, got $r")
  }

  test("beats the Default order decisively on the CP analogue") {
    val g = GraphGen.datasetSmall("CP")
    val mDef = Metric.ratio(g, DefaultOrder.order(g))
    val mGo  = Metric.ratio(g, GoGraph.order(g))
    assert(mGo > mDef + 0.3, s"GoGraph ($mGo) should far exceed Default ($mDef)")
  }

  test("achieves the highest M among all competitors on the CP analogue (Table II shape)") {
    val g = GraphGen.datasetSmall("CP")
    val competitors = Seq(DefaultOrder, HubCluster, DegreeSort, HubSort, Gorder, RabbitOrder)
    val mGo = Metric.positiveEdges(g, GoGraph.order(g))
    competitors.foreach { r =>
      val m = Metric.positiveEdges(g, r.order(g))
      assert(mGo >= m, s"GoGraph M=$mGo below ${r.name} M=$m")
    }
  }

  test("is deterministic") {
    val g = GraphGen.rmat(250, 1800, seed = 67)
    assert(GoGraph.order(g).order.toSeq == GoGraph.order(g).order.toSeq)
  }

  test("works with every divide-phase partitioner (Fig 13 configs)") {
    val g = GraphGen.datasetSmall("IC")
    Seq(RabbitPartition, Louvain, MetisLike, Fennel).foreach { p =>
      val o = new GoGraphReorder(GoGraphConfig(partitioner = p)).order(g)
      assert(o.order.sorted.toSeq == (0 until g.numVertices), s"${p.name} broke the permutation")
      val m = Metric.positiveEdges(g, o)
      assert(m >= g.numEdges / 2.0, s"${p.name}: Theorem 2 violated, M=$m")
    }
  }

  test("hdFraction=1 (everything high-degree) still yields a valid order") {
    val g = GraphGen.rmat(100, 700, seed = 68)
    val o = new GoGraphReorder(GoGraphConfig(hdFraction = 1.0)).order(g)
    assert(o.order.sorted.toSeq == (0 until 100))
    assert(Metric.positiveEdges(g, o) >= g.numEdges / 2.0)
  }

  test("graph that collapses to only HD + isolated vertices (star)") {
    // hub 0 with 20 leaves: extracting 0 isolates every leaf
    val g = DiGraph.unweighted(21, (1 to 20).map(v => (0, v)))
    val o = new GoGraphReorder(GoGraphConfig(hdFraction = 0.05)).order(g)
    assert(o.order.sorted.toSeq == (0 until 21))
    // hub first makes every out-edge positive
    assert(Metric.positiveEdges(g, o) == 20L)
  }

  test("isolated vertices connected only to HD vertices are ordered after them") {
    // two hubs 0,1 heavily connected to leaves; leaf 5 only touches hubs
    val es = Seq((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5), (1, 5),
                 (2, 3), (3, 4), (4, 2))
    val g = DiGraph.unweighted(6, es)
    val o = new GoGraphReorder(GoGraphConfig(hdFraction = 0.34)).order(g)
    assert(o.order.sorted.toSeq == (0 until 6))
    // leaf 5 has only in-edges from the hubs, so both should precede it
    assert(o.pos(0) < o.pos(5) && o.pos(1) < o.pos(5))
  }

  test("disconnected components are all ordered") {
    val es = Seq((0, 1), (1, 2), (3, 4), (4, 5), (6, 7))
    val g = DiGraph.unweighted(9, es) // vertex 8 fully isolated
    val o = GoGraph.order(g)
    assert(o.order.sorted.toSeq == (0 until 9))
    assert(Metric.positiveEdges(g, o) == 5L, "chains should be fully positive")
  }

  test("conquer and combine share one insertion procedure (one part = singletons)") {
    // one part: the conquer phase orders all of G'; singletons: the combine
    // phase orders G' itself as the super-graph. Both must agree exactly.
    val onePart = new Partitioner {
      val name = "OnePart"
      def partition(g: DiGraph, k: Int): Array[Int] = new Array[Int](g.numVertices)
    }
    val singletons = new Partitioner {
      val name = "Singletons"
      def partition(g: DiGraph, k: Int): Array[Int] = Array.range(0, g.numVertices)
    }
    val graphs = Seq(
      "rmat"     -> GraphGen.rmat(400, 3000, seed = 60),
      "citation" -> GraphGen.citation(2000, 5, seed = 3),
      "IC"       -> GraphGen.datasetSmall("IC"),
      "WK"       -> GraphGen.datasetSmall("WK"),
    )
    val differ = graphs.collect { case (name, g)
      if new GoGraphReorder(GoGraphConfig(partitioner = onePart)).order(g).order.toSeq !=
         new GoGraphReorder(GoGraphConfig(partitioner = singletons)).order(g).order.toSeq => name
    }
    assert(differ.isEmpty, s"one part and singletons give different orders on $differ")
  }

  test("keeps subgraph members contiguous (combine phase, locality claim)") {
    // two planted communities bridged by one edge
    val rnd = new scala.util.Random(69)
    val es = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    Seq(0, 30).foreach { base =>
      (0 until 200).foreach { _ =>
        val u = base + rnd.nextInt(30); val v = base + rnd.nextInt(30)
        if (u != v) es += ((u, v))
      }
    }
    es += ((5, 35))
    val g = DiGraph.unweighted(60, es.toSeq)
    val o = new GoGraphReorder(GoGraphConfig(hdFraction = 0.0001)).order(g)
    var sum = 0.0; var cnt = 0
    g.foreachEdge((u, v, _) => { sum += math.abs(o.pos(u) - o.pos(v)); cnt += 1 })
    assert(sum / cnt < 35, s"avg ordinal distance ${sum / cnt} should stay within a community span")
  }

  test("name matches the paper label") {
    assert(GoGraph.name == "GoGraph")
  }
}
