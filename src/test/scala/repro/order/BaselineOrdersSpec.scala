package repro.order

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DiGraph, GraphGen}

class BaselineOrdersSpec extends AnyFunSuite {

  private def star: DiGraph = // hub 0 with 6 spokes, plus a 2-path among spokes
    DiGraph.unweighted(7, Seq((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2)))

  private def checkPermutation(r: Reorder, g: DiGraph): VertexOrder = {
    val o = r.order(g)
    assert(o.order.sorted.toSeq == (0 until g.numVertices), s"${r.name} is not a permutation")
    o
  }

  test("DefaultOrder is the identity") {
    val o = DefaultOrder.order(star)
    assert(o.order.toSeq == (0 until 7))
  }

  test("all baselines return permutations on a random graph") {
    val g = GraphGen.rmat(300, 2000, seed = 21)
    Seq(DefaultOrder, DegreeSort, HubSort, HubCluster).foreach(checkPermutation(_, g))
  }

  test("all baselines handle the empty graph") {
    val g = DiGraph.unweighted(0, Seq.empty)
    Seq(DefaultOrder, DegreeSort, HubSort, HubCluster).foreach { r =>
      assert(r.order(g).n == 0)
    }
  }

  test("all baselines handle an edgeless graph") {
    val g = DiGraph.unweighted(5, Seq.empty)
    Seq(DefaultOrder, DegreeSort, HubSort, HubCluster).foreach { r =>
      assert(r.order(g).order.sorted.toSeq == (0 until 5))
    }
  }

  test("DegreeSort puts the highest-degree vertex first") {
    val o = DegreeSort.order(star)
    assert(o.order(0) == 0) // hub has degree 6
  }

  test("DegreeSort is non-increasing in degree") {
    val g = GraphGen.rmat(200, 1200, seed = 22)
    val o = DegreeSort.order(g)
    val degs = o.order.map(g.degree(_)).toSeq
    assert(degs == degs.sortBy(-(_: Int)))
  }

  test("DegreeSort breaks ties by vertex id") {
    val g = DiGraph.unweighted(4, Seq((0, 1), (2, 3))) // all degree 1
    val o = DegreeSort.order(g)
    assert(o.order.toSeq == Seq(0, 1, 2, 3))
  }

  test("HubSort places hubs sorted by degree at the front") {
    val g = GraphGen.rmat(200, 1200, seed = 23)
    val o = HubSort.order(g)
    val avg = 2.0 * g.numEdges / g.numVertices
    val hubs = (0 until g.numVertices).filter(g.degree(_) > avg)
    val front = o.order.take(hubs.size).toSeq
    assert(front.toSet == hubs.toSet, "front block must be exactly the hubs")
    val frontDegs = front.map(g.degree(_))
    assert(frontDegs == frontDegs.sortBy(-(_: Int)), "hubs must be degree-sorted")
  }

  test("HubSort preserves most non-hub subscripts (swap semantics)") {
    val o = HubSort.order(star)
    // only vertex 0 is a hub (degree 6 > avg 2); it swaps with the vertex at
    // position 0, which is itself — everything stays in place
    assert(o.order.toSeq == (0 until 7))
  }

  test("HubCluster packs hubs contiguously at the front in original relative order") {
    val g = GraphGen.rmat(200, 1200, seed = 24)
    val o = HubCluster.order(g)
    val avg = 2.0 * g.numEdges / g.numVertices
    val hubs = (0 until g.numVertices).filter(g.degree(_) > avg)
    assert(o.order.take(hubs.size).toSeq == hubs, "hubs keep ascending-id order")
    assert(o.order.drop(hubs.size).toSeq ==
      (0 until g.numVertices).filterNot(hubs.contains), "non-hubs keep relative order")
  }

  test("baseline names match the paper's labels") {
    assert(DefaultOrder.name == "Default")
    assert(DegreeSort.name == "DegSort")
    assert(HubSort.name == "HubSort")
    assert(HubCluster.name == "HubCluster")
  }
}
