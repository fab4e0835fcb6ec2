package repro.order

import repro.SparkSpec
import repro.graph.{DiGraph, GraphGen, RandomGraphs}

class VertexOrderSpec extends SparkSpec {

  test("identity order maps each vertex to its own position") {
    val o = VertexOrder.identity(5)
    (0 until 5).foreach(v => assert(o.pos(v) == v && o.order(v) == v))
  }

  test("fromOrder computes the inverse pos array") {
    val o = VertexOrder.fromOrder(Array(2, 0, 1))
    assert(o.pos.toSeq == Seq(1, 2, 0))
  }

  test("duplicate vertices are rejected") {
    intercept[IllegalArgumentException] { VertexOrder.fromOrder(Array(0, 0, 1)) }
  }

  test("out-of-range vertices are rejected") {
    intercept[IllegalArgumentException] { VertexOrder.fromOrder(Array(0, 3)) }
  }

  test("apply returns the ordinal number") {
    val o = VertexOrder.fromOrder(Array(4, 3, 2, 1, 0))
    assert(o(4) == 0)
    assert(o(0) == 4)
  }

  // ---- Metric M(·) ----

  private val fig2Graph: DiGraph = // paper Fig 2: a=0,b=1,c=2,d=3,e=4
    DiGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 4, 4.0), (1, 4, 1.0), (4, 2, 1.0), (4, 3, 1.0)))

  test("M of identity order on Fig 2 graph counts forward edges") {
    // (0,1),(0,4),(1,4) positive; (4,2),(4,3) negative
    assert(Metric.positiveEdges(fig2Graph, VertexOrder.identity(5)) == 3L)
  }

  test("M of the paper's reordered [a,b,e,c,d] is |E| (all positive)") {
    val o = VertexOrder.fromOrder(Array(0, 1, 4, 2, 3))
    assert(Metric.positiveEdges(fig2Graph, o) == 5L)
    assert(Metric.ratio(fig2Graph, o) == 1.0)
  }

  test("M of a reversed optimal order flips positive to negative") {
    val o = VertexOrder.fromOrder(Array(3, 2, 4, 1, 0))
    assert(Metric.positiveEdges(fig2Graph, o) == 0L)
  }

  test("M(O) + M(reverse O) = |E|") {
    val g = GraphGen.rmat(200, 1500, seed = 13)
    val perm = GraphGen.randomPermutation(200, seed = 14)
    val o = VertexOrder.fromOrder(perm)
    val rev = VertexOrder.fromOrder(perm.reverse)
    assert(Metric.positiveEdges(g, o) + Metric.positiveEdges(g, rev) == g.numEdges.toLong)
  }

  test("M on empty-edge graph is 0 and ratio defined as 1") {
    val g = DiGraph.unweighted(4, Seq.empty)
    assert(Metric.positiveEdges(g, VertexOrder.identity(4)) == 0L)
    assert(Metric.ratio(g, VertexOrder.identity(4)) == 1.0)
  }

  test("M rejects mismatched order size") {
    intercept[IllegalArgumentException] {
      Metric.positiveEdges(fig2Graph, VertexOrder.identity(4))
    }
  }

  test("parallel edges each count toward M") {
    val g = DiGraph.unweighted(2, Seq((0, 1), (0, 1)))
    assert(Metric.positiveEdges(g, VertexOrder.identity(2)) == 2L)
  }

  test("random order yields roughly |E|/2 positive edges") {
    val g = GraphGen.rmat(400, 4000, seed = 15)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(400, seed = 16))
    val r = Metric.ratio(g, o)
    assert(r > 0.4 && r < 0.6, s"random ratio $r should be near 0.5")
  }

  // ---- DataFrame twin, oracle-checked ----

  test("positiveEdgesDF equals driver-side M") {
    val g = RandomGraphs.erdosRenyi(60, 300, seed = 17)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(60, seed = 18))
    val df = Metric.positiveEdgesDF(g.edgesDF(spark), o.toDF(spark))
    assert(df.head().getLong(0) == Metric.positiveEdges(g, o))
  }

  test("positiveEdgesDF matches the DuckDB oracle") {
    val g = RandomGraphs.erdosRenyi(40, 200, seed = 19)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(40, seed = 20))
    val edges = g.edgesDF(spark)
    val ord   = o.toDF(spark)
    repro.Oracle.assertEquivalent(
      Metric.positiveEdgesDF(edges, ord),
      """SELECT sum(CASE WHEN CAST(ps.pos AS BIGINT) < CAST(pd.pos AS BIGINT)
        |                THEN 1 ELSE 0 END) AS positive_edges
        |FROM edges e
        |JOIN ord ps ON e.src = ps.id
        |JOIN ord pd ON e.dst = pd.id""".stripMargin,
      "edges" -> edges, "ord" -> ord)
  }

  test("toDF emits one row per vertex") {
    val o = VertexOrder.identity(7)
    assert(o.toDF(spark).count() == 7)
  }
}
