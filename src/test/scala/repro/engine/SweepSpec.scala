package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.DiGraph
import repro.order.DefaultOrder

/** Edge cases of the sweep kernel, for all six programs in both modes. */
class SweepSpec extends AnyFunSuite {

  private val programs = Seq(PageRank, PHP, SSSP, BFS, CC, SSWP)

  private def runs(g: DiGraph, prog: VertexProgram, source: Int): Seq[(String, RunResult)] = {
    val s = if (prog.sourced) source else -1
    Seq("sync" -> SeqEngine.sync(g, prog, s), "async" -> SeqEngine.async(g, prog, DefaultOrder.order(g), s))
  }

  test("a vertex with no in-edges gets its fold's identity, in every program and mode") {
    // vertex 3 is isolated, so it has no in-edges in the symmetrized graph (CC) either
    val g = DiGraph.unweighted(4, Seq((0, 1), (1, 2)))
    val expected = Map[VertexProgram, Double](
      PageRank -> (1.0 - PageRank.damping), PHP -> 0.0, SSSP -> Double.PositiveInfinity,
      BFS -> Double.PositiveInfinity, CC -> 3.0, SSWP -> 0.0)
    programs.foreach { p =>
      runs(g, p, source = 0).foreach { case (mode, r) =>
        assert(r.converged, s"$mode ${p.name}")
        assert(r.states(3) == expected(p), s"$mode ${p.name}")
      }
    }
  }

  test("parallel in-edges fold once per edge, in every program and mode") {
    val g  = DiGraph.fromEdges(2, Seq((0, 1, 5.0), (0, 1, 2.0)))
    val pr = 1.0 - PageRank.damping // vertex 0's PageRank: no in-edges
    val expected = Map[VertexProgram, Double](
      PageRank -> PageRank.apply(1, 0.0, pr / 2 + pr / 2, -1),
      PHP      -> PHP.penalty * (1.0 / 2 + 1.0 / 2),
      SSSP     -> 2.0, // the second edge
      BFS      -> 1.0,
      CC       -> 0.0,
      SSWP     -> 5.0, // the first edge
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
      val s   = if (p.sourced) 0 else -1
      val gp  = SeqEngine.prepare(g, p)
      val blk = Block.of(gp, Array.range(0, 4))
      val x   = SeqEngine.initialStates(p, 4, s)
      assert(!Sweep(blk, p, gp.outDegrees, x, new Array[Double](4), s).maxDelta.isNaN, s"sync ${p.name}")
      SeqEngine.async(g, p, DefaultOrder.order(g), s,
        onRound = (k, d, _, _) => assert(!d.isNaN, s"async ${p.name} round $k"))
    }
  }
}
