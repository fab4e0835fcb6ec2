package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Eval
import repro.graph.GraphGen

/** Fig 9/10 as tables: simulated cache misses of one PageRank-style sweep
  * per reorder method (Fig 9, paper: GoGraph −30% mean vs competitors), and
  * GoGraph with vs without the divide/partition phase (Fig 10, paper: −33%
  * mean, up to −58%).
  */
class CacheMissBench extends AnyFunSuite {

  private lazy val rows = Eval.cacheMiss(GraphGen.datasetNames, GraphGen.dataset)

  test("Fig 9: print normalized simulated cache misses") {
    println(Eval.renderCacheMiss(rows))
    assert(rows.size == GraphGen.datasetNames.size)
  }

  test("Fig 9 shape: GoGraph misses less than Default on every graph") {
    rows.foreach { r =>
      assert(r.cells("GoGraph") < r.cells("Default"),
        s"${r.graph}: GoGraph ${r.cells("GoGraph")} >= Default ${r.cells("Default")}")
    }
  }

  test("Fig 9 shape: locality-aware methods (Rabbit/Gorder/GoGraph) beat degree-only sorts on average") {
    def geo(m: String): Double =
      math.exp(rows.map(r => math.log(r.cells(m).toDouble)).sum / rows.size)
    val locality = Seq("Rabbit", "Gorder", "GoGraph").map(geo).min
    val degreeOnly = Seq("DegSort", "HubSort", "HubCluster").map(geo).min
    assert(locality < degreeOnly,
      s"best locality method ($locality) should beat best degree sort ($degreeOnly)")
  }

  test("Fig 10: partitioning phase reduces GoGraph's cache misses") {
    val part = Eval.partitionCacheImpact(GraphGen.datasetNames, GraphGen.dataset)
    println(Eval.renderPartitionCacheImpact(part))
    val reductions = part.map(r =>
      1.0 - r.cells("with partition").toDouble / math.max(1L, r.cells("without partition")))
    val mean = reductions.sum / reductions.size
    println(f"Mean cache-miss reduction from partitioning: ${mean * 100}%.0f%% (paper 33%%)")
    assert(mean > 0.0, s"partitioning should reduce misses on average, got ${mean * 100}%")
  }
}
