package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.order.{DefaultOrder, Metric}

class GraphGenSpec extends AnyFunSuite {

  test("erdosRenyi has requested vertex and edge counts") {
    val g = RandomGraphs.erdosRenyi(100, 500, seed = 1)
    assert(g.numVertices == 100)
    assert(g.numEdges == 500)
  }

  test("erdosRenyi is deterministic in the seed") {
    val a = RandomGraphs.erdosRenyi(50, 200, seed = 42)
    val b = RandomGraphs.erdosRenyi(50, 200, seed = 42)
    assert(a.edges == b.edges)
  }

  test("erdosRenyi differs across seeds") {
    val a = RandomGraphs.erdosRenyi(50, 200, seed = 1)
    val b = RandomGraphs.erdosRenyi(50, 200, seed = 2)
    assert(a.edges != b.edges)
  }

  test("erdosRenyi has no self-loops") {
    val g = RandomGraphs.erdosRenyi(20, 100, seed = 5)
    g.foreachEdge((u, v, _) => assert(u != v))
  }

  test("rmat has requested counts and no self-loops") {
    val g = GraphGen.rmat(128, 1000, seed = 1)
    assert(g.numVertices == 128)
    assert(g.numEdges == 1000)
    g.foreachEdge((u, v, _) => assert(u != v))
  }

  test("rmat is deterministic in the seed") {
    val a = GraphGen.rmat(100, 400, seed = 9)
    val b = GraphGen.rmat(100, 400, seed = 9)
    assert(a.edges == b.edges)
  }

  test("rmat with default skew produces a heavier max degree than erdosRenyi") {
    val r  = GraphGen.rmat(500, 3000, seed = 4)
    val er = RandomGraphs.erdosRenyi(500, 3000, seed = 4)
    val maxR  = (0 until 500).map(r.degree).max
    val maxEr = (0 until 500).map(er.degree).max
    assert(maxR > maxEr, s"rmat max degree $maxR should exceed ER $maxEr")
  }

  test("rmat rejects invalid quadrant probabilities") {
    intercept[IllegalArgumentException] { GraphGen.rmat(10, 10, 1, a = 0.6, b = 0.3, c = 0.3) }
  }

  test("barabasiAlbert vertex count and approximate edge count") {
    val g = GraphGen.barabasiAlbert(200, 3, seed = 2)
    assert(g.numVertices == 200)
    assert(g.numEdges == (200 - 3) * 3)
  }

  test("barabasiAlbert edges point old -> new (chronological default order is near-optimal)") {
    val g = GraphGen.barabasiAlbert(300, 4, seed = 3)
    assert(Metric.ratio(g, DefaultOrder.order(g)) == 1.0)
  }

  test("barabasiAlbert pForward=0.5 gives a default-order ratio near 0.5 (Fig 12 regime)") {
    val g = GraphGen.barabasiAlbert(2000, 4, seed = 3, pForward = 0.5)
    val r = Metric.ratio(g, DefaultOrder.order(g))
    assert(r > 0.4 && r < 0.6, s"mixed-direction BA ratio $r should be near 0.5")
  }

  test("barabasiAlbert pForward=0 points every edge new -> old") {
    val g = GraphGen.barabasiAlbert(500, 3, seed = 4, pForward = 0.0)
    assert(Metric.ratio(g, DefaultOrder.order(g)) == 0.0)
  }

  test("barabasiAlbert weights are in [1, 9]") {
    val g = GraphGen.barabasiAlbert(100, 2, seed = 6)
    g.foreachEdge((_, _, w) => assert(w >= 1.0 && w <= 9.0))
  }

  test("citation edges are mostly new -> old (default order is adversarial)") {
    val g = GraphGen.citation(1000, 5, seed = 7)
    val r = Metric.ratio(g, DefaultOrder.order(g))
    assert(r < 0.15, s"citation default-order positive ratio $r should be small like the paper's 0.07")
  }

  test("citation noise fraction is near the requested level") {
    val g = GraphGen.citation(2000, 5, seed = 8, noise = 0.08)
    val r = Metric.ratio(g, DefaultOrder.order(g))
    assert(math.abs(r - 0.08) < 0.03, s"ratio $r should be near the 0.08 noise level")
  }

  test("citation with zero noise is a DAG in reverse-chronological direction") {
    val g = GraphGen.citation(500, 3, seed = 9, noise = 0.0)
    g.foreachEdge((u, v, _) => assert(u > v, s"citation edge ($u,$v) must point new->old"))
  }

  test("citation edge list is pinned by its checksum") {
    // FNV-1a over (src, dst, weight) of every edge in CSR order; pins the
    // generator's RNG call sequence and its targets' iteration order
    def checksum(g: DiGraph): Long = {
      var h = 0xcbf29ce484222325L
      def mix(x: Long): Unit = h = (h ^ x) * 0x100000001b3L
      g.foreachEdge { (u, v, w) => mix(u); mix(v); mix(w.toLong) }
      h
    }
    assert(checksum(GraphGen.citation(2000, 5, seed = 7)) == -1346470037624524302L)
    assert(checksum(RandomGraphs.erdosRenyi(50, 200, seed = 42)) == 937530239293757869L)
  }

  test("shuffleIds preserves counts and destroys ID structure") {
    val g  = GraphGen.citation(500, 4, seed = 10, noise = 0.0)
    val g2 = GraphGen.shuffleIds(g, seed = 11)
    assert(g2.numVertices == g.numVertices)
    assert(g2.numEdges == g.numEdges)
    val r = Metric.ratio(g2, DefaultOrder.order(g2))
    assert(r > 0.3 && r < 0.7, s"shuffled ratio $r should be near random 0.5")
  }

  test("randomPermutation is a permutation") {
    val p = GraphGen.randomPermutation(100, seed = 12)
    assert(p.sorted.toSeq == (0 until 100))
  }

  test("randomPermutation deterministic in seed") {
    assert(GraphGen.randomPermutation(64, 1).toSeq == GraphGen.randomPermutation(64, 1).toSeq)
  }

  test("all small dataset analogues build and are non-trivial") {
    GraphGen.datasetNames.foreach { name =>
      val g = GraphGen.datasetSmall(name)
      assert(g.numVertices > 100, s"$name too few vertices")
      assert(g.numEdges > 500, s"$name too few edges")
    }
  }

  test("IC analogue matches the paper's exact size") {
    val g = GraphGen.dataset("IC")
    assert(g.numVertices == 11358)
    assert(g.numEdges == 49138)
  }

  test("CP analogue default order has a small positive-edge ratio like the paper (0.07)") {
    val g = GraphGen.datasetSmall("CP")
    val r = Metric.ratio(g, DefaultOrder.order(g))
    assert(r < 0.15, s"CP-small default ratio $r")
  }

  test("unknown dataset names are rejected") {
    intercept[IllegalArgumentException] { GraphGen.dataset("XX") }
    intercept[IllegalArgumentException] { GraphGen.datasetSmall("XX") }
  }

  test("dataset analogues are deterministic") {
    val a = GraphGen.datasetSmall("LJ")
    val b = GraphGen.datasetSmall("LJ")
    assert(a.edges == b.edges)
  }
}
