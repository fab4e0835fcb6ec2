package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Eval, Orders}
import repro.graph.GraphGen

/** Fig 5/6 as a table: normalized asynchronous runtime and iteration rounds
  * of the four workloads under the seven reorder methods, on all six
  * dataset analogues. Paper headline: GoGraph 2.10× mean speedup over
  * Default (up to 3.33×), 52% mean round reduction (up to 71%).
  */
class OverallPerfBench extends AnyFunSuite {

  private lazy val rows = Eval.overallPerf(GraphGen.datasetNames, GraphGen.dataset)

  test("Fig 5/6: print normalized runtime (rounds) for all datasets and methods") {
    println(Eval.renderOverallPerf(rows))
    assert(rows.size == GraphGen.datasetNames.size * Eval.algorithms.size)
  }

  test("Fig 5/6 shape: GoGraph rounds never exceed Default's anywhere") {
    rows.foreach { r =>
      assert(r.cells("GoGraph").rounds <= r.cells("Default").rounds,
        s"${r.graph}/${r.algo}: GoGraph ${r.cells("GoGraph").rounds} > " +
          s"Default ${r.cells("Default").rounds}")
    }
  }

  test("Fig 5/6 shape: GoGraph wins the geometric-mean round reduction") {
    val names = Orders.competitors.map(_.name)
    def geoMeanRounds(m: String): Double =
      math.exp(rows.map(r => math.log(r.cells(m).rounds.toDouble)).sum / rows.size)
    val go = geoMeanRounds("GoGraph")
    names.filterNot(_ == "GoGraph").foreach { m =>
      assert(go <= geoMeanRounds(m) + 1e-9,
        s"GoGraph geo-mean $go rounds above $m ${geoMeanRounds(m)}")
    }
    val dfl = geoMeanRounds("Default")
    val reduction = 1.0 - go / dfl
    println(f"Geo-mean rounds: Default=$dfl%.1f GoGraph=$go%.1f (reduction ${reduction * 100}%.0f%%, paper mean 52%%)")
    assert(reduction > 0.15, s"expected meaningful mean reduction, got ${reduction * 100}%")
  }

  test("Fig 5/6 shape: GoGraph achieves a mean runtime speedup over Default") {
    val speedups = rows.map(r =>
      r.cells("Default").runtimeMs / math.max(1e-9, r.cells("GoGraph").runtimeMs))
    val geo = math.exp(speedups.map(math.log).sum / speedups.size)
    println(f"Geo-mean GoGraph speedup over Default: $geo%.2fx (paper 2.10x)")
    assert(geo > 1.0, s"GoGraph should be faster on average, got ${geo}x")
  }
}
