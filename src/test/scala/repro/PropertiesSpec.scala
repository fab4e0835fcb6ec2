package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.GoGraph
import repro.engine.{References, SSSP, SeqEngine}
import repro.graph.{DiGraph, GraphGen, RandomGraphs}
import repro.order._
import repro.partition.Partitioner

/** ScalaCheck properties across the whole stack (driven directly — only
  * scalatest and scalacheck are on the offline classpath, not the
  * scalatestplus bridge). Graphs are kept small so the suite stays fast.
  */
class PropertiesSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and fail the scalatest test on falsification. */
  private def check(prop: Prop, tests: Int = 50): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, res.status.toString)
  }

  private val genGraph: Gen[DiGraph] = for {
    n    <- Gen.choose(2, 60)
    m    <- Gen.choose(1, 4 * n)
    seed <- Gen.choose(0L, 100000L)
    kind <- Gen.oneOf(0, 1, 2)
  } yield kind match {
    case 0 => RandomGraphs.erdosRenyi(n, m, seed)
    case 1 => GraphGen.rmat(n, m, seed)
    case 2 => GraphGen.citation(n, math.max(1, math.min(3, n - 1)), seed)
  }

  private def isPermutation(o: VertexOrder, n: Int): Boolean =
    o.order.sorted.toSeq == (0 until n)

  test("property: bucket is the stable sort of the indices by key") {
    val genKeys = for {
      k    <- Gen.choose(1, 12)
      keys <- Gen.containerOf[Array, Int](Gen.choose(0, k - 1))
      more <- Gen.choose(0, 3) // buckets no key can use
    } yield (keys, k + more)
    check(Prop.forAllNoShrink(genKeys) { case (keys, k) =>
      val (off, out) = Partitioner.bucket(keys, k)
      out.toSeq == keys.indices.sortBy(keys(_)) && off.toSeq == (0 to k).map(b => keys.count(_ < b))
    }, tests = 200)
    assert(Partitioner.bucket(Array.empty[Int], 0)._1.toSeq == Seq(0))
    assert(Partitioner.bucket(Array.empty[Int], 3)._1.toSeq == Seq(0, 0, 0, 0))
  }

  test("property: every reorder method returns a permutation") {
    val methods = Seq(DefaultOrder, DegreeSort, HubSort, HubCluster, Gorder, RabbitOrder, GoGraph)
    check(Prop.forAll(genGraph) { g =>
      methods.forall(r => isPermutation(r.order(g), g.numVertices))
    })
  }

  test("property: M(O) + M(reverse O) = |E|") {
    check(Prop.forAll(genGraph, Gen.choose(0L, 9999L)) { (g, s) =>
      val perm = GraphGen.randomPermutation(g.numVertices, s)
      val o    = VertexOrder.fromOrder(perm)
      val rev  = VertexOrder.fromOrder(perm.reverse)
      Metric.positiveEdges(g, o) + Metric.positiveEdges(g, rev) == g.numEdges.toLong
    })
  }

  test("property: Theorem 2 — M(GoGraph) >= |E|/2") {
    check(Prop.forAll(genGraph) { g =>
      Metric.positiveEdges(g, GoGraph.order(g)) * 2 >= g.numEdges.toLong
    })
  }

  test("property: M is invariant under consistent relabeling") {
    check(Prop.forAll(genGraph, Gen.choose(0L, 9999L)) { (g, s) =>
      val perm = GraphGen.randomPermutation(g.numVertices, s)
      val g2   = g.relabel(perm)
      // order o on g corresponds to order o∘perm⁻¹ on g2
      val o  = VertexOrder.fromOrder(GraphGen.randomPermutation(g.numVertices, s + 1))
      val o2 = VertexOrder.fromOrder(o.order.map(perm))
      Metric.positiveEdges(g, o) == Metric.positiveEdges(g2, o2)
    })
  }

  test("property: async SSSP equals Dijkstra under any processing order") {
    check(Prop.forAll(genGraph, Gen.choose(0L, 9999L)) { (g, s) =>
      val src = 0
      val o   = VertexOrder.fromOrder(GraphGen.randomPermutation(g.numVertices, s))
      SeqEngine.async(g, SSSP, o, src).states.toSeq ==
        References.dijkstra(g, src).toSeq
    })
  }

  test("property: async SSSP rounds never exceed sync rounds") {
    check(Prop.forAll(genGraph) { g =>
      val src = (0 until g.numVertices).maxBy(g.outDegree)
      SeqEngine.async(g, SSSP, DefaultOrder.order(g), src).rounds <=
        SeqEngine.sync(g, SSSP, src).rounds
    })
  }

  test("property: degree sums equal edge count") {
    check(Prop.forAll(genGraph) { g =>
      (0 until g.numVertices).map(g.outDegree).sum == g.numEdges &&
      (0 until g.numVertices).map(g.inDegree).sum == g.numEdges
    })
  }

  test("property: relabel preserves edge and vertex counts") {
    check(Prop.forAll(genGraph, Gen.choose(0L, 9999L)) { (g, s) =>
      val g2 = g.relabel(GraphGen.randomPermutation(g.numVertices, s))
      g2.numEdges == g.numEdges && g2.numVertices == g.numVertices
    })
  }
}
