package repro.order

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DiGraph, GraphGen, RandomGraphs}

class RabbitOrderSpec extends AnyFunSuite {

  private def communityGraph(nComm: Int, size: Int, intra: Int, seed: Long): DiGraph = {
    val rnd = new scala.util.Random(seed)
    val es = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    (0 until nComm).foreach { c =>
      val base = c * size
      (0 until intra).foreach { _ =>
        val u = base + rnd.nextInt(size); val v = base + rnd.nextInt(size)
        if (u != v) es += ((u, v))
      }
      // sparse inter-community bridge
      es += ((base, ((c + 1) % nComm) * size))
    }
    DiGraph.unweighted(nComm * size, es.toSeq)
  }

  test("returns a permutation") {
    val g = GraphGen.rmat(250, 1800, seed = 40)
    val o = RabbitOrder.order(g)
    assert(o.order.sorted.toSeq == (0 until 250))
  }

  test("handles empty and edgeless graphs") {
    assert(RabbitOrder.order(DiGraph.unweighted(0, Seq.empty)).n == 0)
    val o = RabbitOrder.order(DiGraph.unweighted(4, Seq.empty))
    assert(o.order.sorted.toSeq == (0 until 4))
  }

  test("members of a community are contiguous in the order") {
    val g = communityGraph(nComm = 6, size = 25, intra = 150, seed = 41)
    val o = RabbitOrder.order(g)
    // communities are dense enough that Rabbit should group most members:
    // measure the average ordinal distance between connected vertices
    var sum = 0.0; var cnt = 0L
    g.foreachEdge((u, v, _) => { sum += math.abs(o.pos(u) - o.pos(v)); cnt += 1 })
    val avg = sum / cnt
    assert(avg < 40, s"avg neighbor distance $avg should be within ~community size")
  }

  test("improves locality over the shuffled default order") {
    val g0 = communityGraph(nComm = 8, size = 20, intra = 100, seed = 42)
    val g  = GraphGen.shuffleIds(g0, seed = 43)
    def avgDist(o: VertexOrder): Double = {
      var s = 0.0; var c = 0L
      g.foreachEdge((u, v, _) => { s += math.abs(o.pos(u) - o.pos(v)); c += 1 })
      s / c
    }
    assert(avgDist(RabbitOrder.order(g)) < avgDist(DefaultOrder.order(g)))
  }

  test("is deterministic") {
    val g = GraphGen.rmat(150, 900, seed = 44)
    assert(RabbitOrder.order(g).order.toSeq == RabbitOrder.order(g).order.toSeq)
  }

  test("bfsWithin visits exactly the requested set") {
    // the label-restricted BFS that RabbitOrder runs over each community
    val g  = RandomGraphs.erdosRenyi(50, 200, seed = 45)
    val vs = Array.range(0, 25)
    val visited = g.bfsOrder(vs)((_, u) => u < 25)
    assert(visited.sorted.toSeq == vs.toSeq)
  }

  test("a community's BFS starts from its lowest-degree member") {
    val g = DiGraph.unweighted(4, Seq((0, 1), (0, 2), (0, 3), (1, 2)))
    assert(RabbitOrder.order(g).order.head == 3, "degree-1 vertex 3 should seed the BFS")
  }
}
