package repro.engine

import repro.SparkSpec
import repro.graph.DiGraph
import repro.order.DefaultOrder

/** Edge cases of the sweep loops, for the four programs in every mode: sync,
  * async, and blocks at 1, 3 and |V|.
  */
class SweepSpec extends SparkSpec {

  private val programs = Seq(PageRank, PHP, SSSP, BFS)

  private def runs(g: DiGraph, prog: VertexProgram, source: Int): Seq[(String, RunResult)] = {
    val s = if (prog.sourced) source else -1
    val o = DefaultOrder.order(g)
    Seq("sync" -> SeqEngine.sync(g, prog, s), "async" -> SeqEngine.async(g, prog, o, s)) ++
      Seq(1, 3, g.numVertices).map(nb => s"$nb blocks" -> SparkBlockAsyncEngine.run(spark, g, prog, o, s, numBlocks = nb))
  }

  private val pr = 1.0 - PageRank.damping // the PageRank of a vertex without in-edges

  test("a vertex with no in-edges gets its fold's identity, in every program and mode") {
    val g = DiGraph.unweighted(4, Seq((0, 1), (1, 2)))
    val expected = Map[VertexProgram, Double](
      PageRank -> pr, PHP -> 0.0, SSSP -> Double.PositiveInfinity, BFS -> Double.PositiveInfinity)
    programs.foreach { p =>
      runs(g, p, source = 0).foreach { case (mode, r) =>
        assert(r.converged, s"$mode ${p.name}")
        assert(r.states(3) == expected(p), s"$mode ${p.name}")
      }
    }
  }

  test("parallel in-edges fold once per edge, in every program and mode") {
    val g  = DiGraph.fromEdges(2, Seq((0, 1, 5.0), (0, 1, 2.0)))
    val expected = Map[VertexProgram, Double](
      PageRank -> (pr + PageRank.damping * (pr / 2 + pr / 2)),
      PHP      -> PHP.penalty * (1.0 / 2 + 1.0 / 2),
      SSSP     -> 2.0, // the second edge
      BFS      -> 1.0,
    )
    programs.foreach { p =>
      runs(g, p, source = 0).foreach { case (mode, r) =>
        assert(math.abs(r.states(1) - expected(p)) <= 1e-12, s"$mode ${p.name}: ${r.states(1)}")
      }
    }
  }

  test("unreachable vertices stay +inf, and neither states nor max |Δ| turn NaN") {
    // 2 ⇄ 3 cannot be reached from source 0
    val g = DiGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)))
    programs.foreach { p =>
      runs(g, p, source = 0).foreach { case (mode, r) =>
        assert(r.converged, s"$mode ${p.name}")
        assert(!r.states.exists(_.isNaN), s"$mode ${p.name}: ${r.states.toSeq}")
        if (p == SSSP || p == BFS) assert(r.states(2).isPosInfinity && r.states(3).isPosInfinity)
      }
      val s      = if (p.sourced) 0 else -1
      val outDeg = g.outDegrees
      val r      = p.fold.load(SeqEngine.initialStates(p, 4, s), outDeg, p.fold.lane(4, track = true))
      val w      = p.fold.lane(4, track = true)
      assert(!p.fold.sweep(g, Block(0, 4), r, w, outDeg, s).maxDelta.isNaN, s"sync ${p.name}")
      SeqEngine.async(g, p, DefaultOrder.order(g), s,
        onRound = (k, d, _, _) => assert(!d.isNaN, s"async ${p.name} round $k"))
    }
  }

  // Degenerate inputs: (graph, source, each program's expected states)
  private val inf = Double.PositiveInfinity
  private val c   = PHP.penalty
  private val d   = PageRank.damping
  Seq[(String, DiGraph, Int, Map[VertexProgram, Seq[Double]])](
    ("the empty graph", DiGraph.unweighted(0, Seq.empty), 0, Map(PageRank -> Nil)),
    ("an all-isolated graph", DiGraph.unweighted(4, Seq.empty), 0, Map(
      PageRank -> Seq(pr, pr, pr, pr), PHP -> Seq(1.0, 0.0, 0.0, 0.0),
      SSSP -> Seq(0.0, inf, inf, inf), BFS -> Seq(0.0, inf, inf, inf))),
    ("an in-star", DiGraph.fromEdges(4, (1 to 3).map(i => (i, 0, 2.0))), 1, Map(
      PageRank -> Seq(pr + d * (3 * pr), pr, pr, pr), PHP -> Seq(c * 1.0, 1.0, 0.0, 0.0),
      SSSP -> Seq(2.0, 0.0, inf, inf), BFS -> Seq(1.0, 0.0, inf, inf))),
    ("an out-star", DiGraph.fromEdges(4, (1 to 3).map(i => (0, i, 2.0))), 0, Map(
      PageRank -> (pr +: Seq.fill(3)(pr + d * (pr / 3))), PHP -> (1.0 +: Seq.fill(3)(c * (1.0 / 3))),
      SSSP -> Seq(0.0, 2.0, 2.0, 2.0), BFS -> Seq(0.0, 1.0, 1.0, 1.0))),
  ).foreach { case (label, g, src, expected) =>
    test(s"$label: every program converges in every mode, without NaN, to the expected states") {
      programs.foreach { p =>
        expected.get(p) match {
          case Some(want) =>
            runs(g, p, src).foreach { case (mode, r) =>
              assert(r.converged, s"$mode ${p.name}")
              assert(!r.states.exists(_.isNaN), s"$mode ${p.name}: ${r.states.toSeq}")
              assert(r.states.toSeq == want, s"$mode ${p.name}")
            }
          case None => // a sourced program on the empty graph: no vertex can be its source
            intercept[IllegalArgumentException](SeqEngine.sync(g, p, src))
            intercept[IllegalArgumentException](SeqEngine.async(g, p, DefaultOrder.order(g), src))
            intercept[IllegalArgumentException](
              SparkBlockAsyncEngine.run(spark, g, p, DefaultOrder.order(g), src, numBlocks = 1))
        }
      }
    }
  }
}
