package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.DiGraph

class ProgramsSpec extends AnyFunSuite {

  /** The new state of vertex k, from state `old`, after one sweep of
    * `prog`'s fold over its in-edges from vertices 0, 1, …, k − 1 in turn,
    * edge `i` given as (state of vertex i, weight, out-degree of vertex i).
    */
  private def update(prog: VertexProgram, old: Double, source: Int, edges: (Double, Double, Int)*): Double = {
    val k      = edges.length
    val g      = DiGraph.fromArrays(k + 1, Array.range(0, k), Array.fill(k)(k), edges.map(_._2).toArray)
    val outDeg = edges.map(_._3).toArray :+ 1
    val lane   = prog.fold.load(edges.map(_._1).toArray :+ old, outDeg, prog.fold.lane(k + 1, track = false))
    prog.fold.sweep(g, Block(k, k + 1), lane, lane, outDeg, source)
    lane.x(k)
  }

  test("PageRank init is 0 everywhere (monotone-from-below start)") {
    assert(PageRank.init(0, -1) == 0.0)
    assert(PageRank.init(5, -1) == 0.0)
  }

  test("PageRank apply adds teleport term") {
    assert(math.abs(update(PageRank, 0.0, -1, (1.0, 1.0, 1)) - 1.0) < 1e-12) // 0.15 + 0.85
    assert(math.abs(update(PageRank, 0.0, -1) - 0.15) < 1e-12)
  }

  test("PageRank gather divides by out-degree") {
    assert(update(PageRank, 0.0, -1, (2.0, 1.0, 4)) == (1.0 - PageRank.damping) + PageRank.damping * (2.0 / 4))
  }

  test("PageRank is monotone in neighbor states (Eq. 3 precondition)") {
    val lo = update(PageRank, 0.0, -1, (1.0, 1.0, 2))
    val hi = update(PageRank, 0.0, -1, (2.0, 1.0, 2))
    assert(lo <= hi)
  }

  test("SSSP init: source 0, others infinity") {
    assert(SSSP.init(3, 3) == 0.0)
    assert(SSSP.init(2, 3).isPosInfinity)
  }

  test("SSSP gather takes min-plus") {
    // the first edge leaves 10.0 (then 4.0) in the accumulator
    val inf = Double.PositiveInfinity
    assert(update(SSSP, inf, 0, (8.0, 2.0, 1), (3.0, 2.0, 1)) == 5.0)
    assert(update(SSSP, inf, 0, (2.0, 2.0, 1), (3.0, 2.0, 1)) == 4.0)
  }

  test("SSSP apply never increases the state (monotone decreasing)") {
    assert(update(SSSP, 5.0, 0, (6.0, 1.0, 1)) == 5.0) // in-edges give 7.0
    assert(update(SSSP, 5.0, 0, (2.0, 1.0, 1)) == 3.0)
  }

  test("BFS gather ignores weights") {
    assert(update(BFS, Double.PositiveInfinity, 0, (2.0, 100.0, 1)) == 3.0)
  }

  test("PHP pins the source at 1") {
    assert(PHP.init(2, 2) == 1.0)
    assert(update(PHP, 0.5, 1, (10.0, 1.0, 1)) == 1.0) // the updated vertex, 1, is the source
    assert(PHP.init(0, 2) == 0.0)
  }

  test("PHP decays through the penalty factor") {
    assert(math.abs(update(PHP, 0.0, 0, (1.0, 1.0, 1)) - 0.85) < 1e-12)
  }

  test("exact programs use tol 0, approximate use 1e-6") {
    assert(SSSP.tol == 0.0 && BFS.tol == 0.0)
    assert(PageRank.tol == 1e-6 && PHP.tol == 1e-6)
  }

  test("sourced flags match algorithm semantics") {
    assert(SSSP.sourced && BFS.sourced && PHP.sourced)
    assert(!PageRank.sourced)
  }

  test("program names are unique") {
    val names = Seq(PageRank, SSSP, BFS, PHP).map(_.name)
    assert(names.distinct == names)
  }
}
