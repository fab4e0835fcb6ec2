package repro.graph

import repro.SparkSpec

class DiGraphSpec extends SparkSpec {

  private def diamond: DiGraph =
    DiGraph.unweighted(4, Seq((0, 1), (0, 2), (1, 3), (2, 3)))

  private def collect(walk: (Int => Unit) => Unit): Seq[Int] = {
    val b = Seq.newBuilder[Int]
    walk(b += _)
    b.result()
  }

  /** `v`'s in-edges as (source, weight) pairs, in CSR order. */
  private def inEdges(g: DiGraph, v: Int): Seq[(Int, Double)] =
    (g.inOff(v) until g.inOff(v + 1)).map(i => (g.inAdj(i), g.inWgt(i)))

  /** `v`'s out-edges as (target, weight) pairs, in CSR order. */
  private def outEdges(g: DiGraph, v: Int): Seq[(Int, Double)] =
    g.edges.collect { case (`v`, u, w) => (u, w) }

  test("empty graph has zero vertices and edges") {
    val g = DiGraph.unweighted(0, Seq.empty)
    assert(g.numVertices == 0)
    assert(g.numEdges == 0)
  }

  test("vertex count and edge count") {
    val g = diamond
    assert(g.numVertices == 4)
    assert(g.numEdges == 4)
  }

  test("out-degrees of diamond") {
    val g = diamond
    assert(g.outDegree(0) == 2)
    assert(g.outDegree(1) == 1)
    assert(g.outDegree(2) == 1)
    assert(g.outDegree(3) == 0)
  }

  test("in-degrees of diamond") {
    val g = diamond
    assert(g.inDegree(0) == 0)
    assert(g.inDegree(1) == 1)
    assert(g.inDegree(2) == 1)
    assert(g.inDegree(3) == 2)
  }

  test("total degree is in + out") {
    val g = diamond
    (0 until 4).foreach(v => assert(g.degree(v) == g.inDegree(v) + g.outDegree(v)))
  }

  test("out-neighbors are correct") {
    val g = diamond
    assert(collect(g.foreachOut(0)).sorted == Seq(1, 2))
    assert(collect(g.foreachOut(3)).isEmpty)
  }

  test("in-neighbors are correct") {
    val g = diamond
    assert(collect(g.foreachIn(3)).sorted == Seq(1, 2))
    assert(collect(g.foreachIn(0)).isEmpty)
  }

  test("self-loops are dropped") {
    val g = DiGraph.unweighted(3, Seq((0, 0), (0, 1), (1, 1), (1, 2)))
    assert(g.numEdges == 2)
    assert(collect(g.foreachOut(0)) == Seq(1))
  }

  test("parallel edges are preserved with multiplicity") {
    val g = DiGraph.unweighted(2, Seq((0, 1), (0, 1), (0, 1)))
    assert(g.numEdges == 3)
    assert(g.outDegree(0) == 3)
    assert(g.inDegree(1) == 3)
  }

  test("edge weights align with in-neighbor index") {
    val g = DiGraph.fromEdges(3, Seq((0, 2, 5.0), (1, 2, 7.0)))
    assert(inEdges(g, 2).toSet == Set((0, 5.0), (1, 7.0)))
    assert(inEdges(g, 2).map(_._1) == collect(g.foreachIn(2)))
  }

  test("edge weights align with out-neighbor index") {
    val g = DiGraph.fromEdges(3, Seq((0, 1, 2.5), (0, 2, 3.5)))
    val pairs = g.edges.collect { case (0, v, w) => (v, w) }
    assert(pairs.toSet == Set((1, 2.5), (2, 3.5)))
    assert(pairs.map(_._1) == collect(g.foreachOut(0)))
  }

  test("foreachEdge visits every edge exactly once") {
    val g = diamond
    var seen = Set.empty[(Int, Int)]
    var count = 0
    g.foreachEdge { (u, v, _) => seen += ((u, v)); count += 1 }
    assert(count == 4)
    assert(seen == Set((0, 1), (0, 2), (1, 3), (2, 3)))
  }

  test("walkEdges visits the edges foreachEdge does, in the same order, and degrees match") {
    val g = GraphGen.rmat(300, 2000, seed = 12)
    val walked = Seq.newBuilder[(Int, Int, Double)]
    g.walkEdges((u, v, w) => walked += ((u, v, w)))
    assert(walked.result() == g.edges)
    val vs = (0 until g.numVertices).toSeq
    assert(g.degrees.toSeq == vs.map(g.degree))
    assert(g.inDegrees.toSeq == vs.map(g.inDegree))
    assert(g.outDegrees.toSeq == vs.map(g.outDegree))
  }

  test("property: foreachNeighbor walks out-edges, then in-edges, in CSR order") {
    val graphs = Seq(GraphGen.rmat(300, 2000, seed = 12), GraphGen.rmat(500, 1500, seed = 13),
                     GraphGen.citation(400, 4, seed = 14), GraphGen.citation(300, 3, seed = 15, noise = 0.3))
    graphs.foreach { g =>
      val out = Array.fill(g.numVertices)(Seq.newBuilder[Int])
      val in  = Array.fill(g.numVertices)(Seq.newBuilder[Int])
      g.foreachEdge { (u, v, _) => out(u) += v; in(v) += u } // out-CSR order
      (0 until g.numVertices).foreach { v =>
        val outs = collect(g.foreachOut(v)); val ins = collect(g.foreachIn(v))
        assert(collect(g.foreachNeighbor(v)) == outs ++ ins)
        assert(outs == out(v).result())
        assert(ins.sorted == in(v).result().sorted)
        assert(ins == inEdges(g, v).map(_._1))
      }
    }
  }

  test("bfsOrder reorders exactly the seeds, walking each vertex's neighbors in turn") {
    val g = DiGraph.unweighted(6, Seq((0, 1), (2, 0), (1, 3), (4, 5)))
    assert(g.bfsOrder(Array(0, 1, 2, 3, 4, 5))((_, _) => true).toSeq == Seq(0, 1, 2, 3, 4, 5))
    assert(g.bfsOrder(Array(3, 5, 0, 1, 2, 4))((_, _) => true).toSeq == Seq(3, 1, 0, 2, 5, 4))
    // keep restricts the walk: 1 is not reached from 3, so it waits for its own turn
    assert(g.bfsOrder(Array(3, 0, 2, 1))((_, u) => u != 1).toSeq == Seq(3, 0, 2, 1))
  }

  test("bfsOrder calls sharing one reached array match fresh calls") {
    val g       = GraphGen.rmat(200, 1200, seed = 121)
    val all     = GraphGen.randomPermutation(200, seed = 122)
    val evens   = all.filter(_ % 2 == 0)
    val reached = new Array[Boolean](200)
    val shared  = Seq(g.bfsOrder(all, reached)((_, _) => true), g.bfsOrder(evens, reached)((_, u) => u % 2 == 0))
    val fresh   = Seq(g.bfsOrder(all)((_, _) => true), g.bfsOrder(evens)((_, u) => u % 2 == 0))
    assert(shared.map(_.toSeq) == fresh.map(_.toSeq))
    assert(!reached.contains(true), "bfsOrder leaves the shared array cleared")
  }

  test("edges returns the full edge list") {
    val g = DiGraph.fromEdges(2, Seq((0, 1, 9.0)))
    assert(g.edges == Seq((0, 1, 9.0)))
  }

  test("out-of-range endpoints are rejected") {
    intercept[IllegalArgumentException] { DiGraph.unweighted(2, Seq((0, 2))) }
    intercept[IllegalArgumentException] { DiGraph.unweighted(2, Seq((-1, 0))) }
    intercept[IllegalArgumentException] { DiGraph.unweighted(2, Seq((5, 5))) }
    intercept[IllegalArgumentException] { DiGraph.unweighted(2, Seq((-1, -1))) }
  }

  test("relabel preserves topology under a permutation") {
    val g  = diamond
    val g2 = g.relabel(Array(3, 2, 1, 0)) // v -> 3-v
    assert(g2.numEdges == 4)
    val expect = Set((3, 2), (3, 1), (2, 0), (1, 0))
    assert(g2.edges.map { case (u, v, _) => (u, v) }.toSet == expect)
  }

  test("relabel keeps degree multiset") {
    val g    = RandomGraphs.erdosRenyi(50, 200, seed = 7)
    val perm = GraphGen.randomPermutation(50, seed = 8)
    val g2   = g.relabel(perm)
    assert(g.edges.map(_._1).groupBy(identity).values.map(_.size).toSeq.sorted ==
           g2.edges.map(_._1).groupBy(identity).values.map(_.size).toSeq.sorted)
    (0 until 50).foreach { v =>
      assert(g2.outDegree(perm(v)) == g.outDegree(v))
      assert(g2.inDegree(perm(v)) == g.inDegree(v))
    }
  }

  test("relabel rejects wrong-size permutation") {
    intercept[IllegalArgumentException] { diamond.relabel(Array(0, 1)) }
  }

  test("relabel keeps every vertex's in-list and out-list in their order") {
    // in-lists not sorted by source: fromEdges keeps the input order
    val g    = DiGraph.fromEdges(5, Seq((3, 0, 1.0), (1, 0, 2.0), (4, 0, 3.0), (2, 1, 4.0), (0, 1, 5.0),
                                        (3, 1, 6.0), (0, 2, 7.0), (4, 2, 8.0), (0, 2, 9.0)))
    val perm = Array(2, 4, 0, 3, 1)
    val g2   = g.relabel(perm)
    (0 until 5).foreach { v =>
      assert(inEdges(g2, perm(v)) == inEdges(g, v).map { case (u, w) => (perm(u), w) }, s"in-list of $v")
      assert(outEdges(g2, perm(v)) == outEdges(g, v).map { case (u, w) => (perm(u), w) }, s"out-list of $v")
    }
  }

  test("relabel rejects a repeated or out-of-range id") {
    intercept[IllegalArgumentException] { diamond.relabel(Array(0, 1, 1, 3)) }
    intercept[IllegalArgumentException] { diamond.relabel(Array(0, 1, 2, 4)) }
    intercept[IllegalArgumentException] { diamond.relabel(Array(0, 1, -1, 3)) }
  }

  test("edgesDF round-trips through fromDF") {
    val g   = DiGraph.fromEdges(4, Seq((0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)))
    val df  = g.edgesDF(spark)
    val g2  = DiGraph.fromDF(df, 4)
    assert(g2.edges.sortBy(e => (e._1, e._2)) == g.edges.sortBy(e => (e._1, e._2)))
  }

  test("fromDF rejects ids outside [0, numVertices) instead of narrowing them") {
    import spark.implicits._
    // 4294967297 = 2^32 + 1 narrows to vertex 1 under Long.toInt
    Seq((0L, 4294967297L), (0L, 5L), (-1L, 2L)).foreach { e =>
      val df = Seq(e).toDF("src", "dst")
      intercept[IllegalArgumentException] { DiGraph.fromDF(df, 5) }
    }
  }

  test("fromDF reads integer weight columns and rejects nulls") {
    import spark.implicits._
    val ints = Seq((0, 1, 4), (1, 2, 7)).toDF("src", "dst", "weight")
    assert(DiGraph.fromDF(ints, 3).edges == Seq((0, 1, 4.0), (1, 2, 7.0)))
    val longs = Seq((0L, 1L, 4L)).toDF("src", "dst", "weight")
    assert(DiGraph.fromDF(longs, 2).edges == Seq((0, 1, 4.0)))
    val nullId = Seq((Some(0L), Option.empty[Long])).toDF("src", "dst")
    intercept[IllegalArgumentException] { DiGraph.fromDF(nullId, 2) }
    val nullW = Seq((0L, 1L, Option.empty[Double])).toDF("src", "dst", "weight")
    intercept[IllegalArgumentException] { DiGraph.fromDF(nullW, 2) }
  }

  test("edgesDF schema is (src, dst, weight)") {
    val df = diamond.edgesDF(spark)
    assert(df.columns.toSeq == Seq("src", "dst", "weight"))
    assert(df.count() == 4)
  }

  test("edgesDF degree query matches DuckDB oracle") {
    import org.apache.spark.sql.functions._
    val g  = RandomGraphs.erdosRenyi(30, 120, seed = 3)
    val df = g.edgesDF(spark)
    val outDeg = df.groupBy("src").agg(count(lit(1)).as("out_deg"))
    repro.Oracle.assertEquivalent(
      outDeg,
      "SELECT src, count(*) AS out_deg FROM edges GROUP BY src",
      "edges" -> df)
  }
}
