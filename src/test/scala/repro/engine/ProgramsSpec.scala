package repro.engine

import org.scalatest.funsuite.AnyFunSuite

class ProgramsSpec extends AnyFunSuite {

  /** `prog`'s fold over in-edges from vertices 0, 1, … in turn, edge `i`
    * given as (state of vertex i, weight, out-degree of vertex i).
    */
  private def fold(prog: VertexProgram, edges: (Double, Double, Int)*): Double = {
    val k   = edges.length
    val blk = Block(Array(k), Array(0, k), Array.range(0, k), edges.map(_._2).toArray)
    prog.fold(blk, 0, k, edges.map(_._1).toArray :+ 0.0, edges.map(_._3).toArray :+ 0)
  }

  test("PageRank init is 0 everywhere (monotone-from-below start)") {
    assert(PageRank.init(0, -1) == 0.0)
    assert(PageRank.init(5, -1) == 0.0)
  }

  test("PageRank apply adds teleport term") {
    assert(math.abs(PageRank.apply(0, 0.0, 1.0, -1) - 1.0) < 1e-12) // 0.15 + 0.85
    assert(math.abs(PageRank.apply(0, 0.0, 0.0, -1) - 0.15) < 1e-12)
  }

  test("PageRank gather divides by out-degree") {
    assert(fold(PageRank, (2.0, 1.0, 4)) == 0.5)
  }

  test("PageRank is monotone in neighbor states (Eq. 3 precondition)") {
    val lo = PageRank.apply(0, 0.0, fold(PageRank, (1.0, 1.0, 2)), -1)
    val hi = PageRank.apply(0, 0.0, fold(PageRank, (2.0, 1.0, 2)), -1)
    assert(lo <= hi)
  }

  test("SSSP init: source 0, others infinity") {
    assert(SSSP.init(3, 3) == 0.0)
    assert(SSSP.init(2, 3).isPosInfinity)
  }

  test("SSSP gather takes min-plus") {
    // the first edge leaves 10.0 (then 4.0) in the accumulator
    assert(fold(SSSP, (8.0, 2.0, 1), (3.0, 2.0, 1)) == 5.0)
    assert(fold(SSSP, (2.0, 2.0, 1), (3.0, 2.0, 1)) == 4.0)
  }

  test("SSSP apply never increases the state (monotone decreasing)") {
    assert(SSSP.apply(0, 5.0, 7.0, 0) == 5.0)
    assert(SSSP.apply(0, 5.0, 3.0, 0) == 3.0)
  }

  test("BFS gather ignores weights") {
    assert(fold(BFS, (2.0, 100.0, 1)) == 3.0)
  }

  test("CC init is the vertex id and gather takes min label") {
    assert(CC.init(7, -1) == 7.0)
    assert(fold(CC, (5.0, 1.0, 1), (3.0, 1.0, 1)) == 3.0)
    assert(CC.needsSymmetric)
  }

  test("PHP pins the source at 1") {
    assert(PHP.init(2, 2) == 1.0)
    assert(PHP.apply(2, 0.5, 10.0, 2) == 1.0)
    assert(PHP.init(0, 2) == 0.0)
  }

  test("PHP decays through the penalty factor") {
    assert(math.abs(PHP.apply(1, 0.0, 1.0, 2) - 0.85) < 1e-12)
  }

  test("SSWP gather is max of min(capacity, weight)") {
    // the first edge leaves 2.0 (then 5.0) in the accumulator
    assert(fold(SSWP, (2.0, 5.0, 1), (10.0, 4.0, 1)) == 4.0)
    assert(fold(SSWP, (5.0, 9.0, 1), (10.0, 4.0, 1)) == 5.0)
  }

  test("SSWP source keeps infinite capacity") {
    assert(SSWP.init(1, 1).isPosInfinity)
    assert(SSWP.apply(1, Double.PositiveInfinity, 3.0, 1).isPosInfinity)
  }

  test("exact programs use tol 0, approximate use 1e-6") {
    assert(SSSP.tol == 0.0 && BFS.tol == 0.0 && CC.tol == 0.0 && SSWP.tol == 0.0)
    assert(PageRank.tol == 1e-6 && PHP.tol == 1e-6)
  }

  test("sourced flags match algorithm semantics") {
    assert(SSSP.sourced && BFS.sourced && PHP.sourced && SSWP.sourced)
    assert(!PageRank.sourced && !CC.sourced)
  }

  test("program names are unique") {
    val names = Seq(PageRank, SSSP, BFS, CC, PHP, SSWP).map(_.name)
    assert(names.distinct == names)
  }
}
