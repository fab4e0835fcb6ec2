package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Eval

/** Fig 12 as a table: PageRank on Barabási–Albert graphs with average degree
  * 2/4/6/8. Paper observations: runtime grows with degree; round counts stay
  * similar; reordering gains are smaller than on real graphs because the
  * generated default order is already near-optimal.
  */
class AvgDegreeBench extends AnyFunSuite {

  // paper uses |V| = 1,000,000; scaled to keep the 7-method sweep quick
  private lazy val rows = Eval.avgDegreeSweep(n = 50000)

  test("Fig 12: print the BA average-degree sweep") {
    println(Eval.renderAvgDegree(rows))
    assert(rows.map(_.graph) == Seq("2", "4", "6", "8"))
  }

  test("Fig 12 shape: runtime grows with average degree for the default order") {
    val times = rows.map(_.cells("Default").runtimeMs)
    assert(times.last > times.head,
      s"denser BA graphs should take longer: ${times.mkString(", ")}")
  }

  test("Fig 12 shape: reordering gains are modest on BA graphs (default already near-optimal)") {
    rows.foreach { r =>
      val dfl = r.cells("Default").rounds
      val go  = r.cells("GoGraph").rounds
      assert(go <= dfl, s"deg=${r.graph}: GoGraph $go > Default $dfl")
      assert(dfl - go <= math.max(3, (2 * dfl) / 3),
        s"deg=${r.graph}: gain $dfl->$go should stay modest — BA default order starts at M/|E|=0.5")
    }
  }

  test("Fig 12 shape: round counts stay in the same regime across densities") {
    // deg=2 BA graphs are tree-like and converge faster; the paper's claim is
    // that rounds do not explode with size the way runtime does
    val dflRounds = rows.map(_.cells("Default").rounds)
    assert(dflRounds.max <= 3 * dflRounds.min,
      s"rounds should not explode with density: $dflRounds")
  }
}
