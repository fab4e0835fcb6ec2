package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Eval
import repro.graph.GraphGen

/** Fig 13 as a table: GoGraph's divide phase swapped between
  * Rabbit-Partition, Metis, Louvain, and Fennel; PageRank runtime and
  * rounds normalized to Rabbit. Paper observation: Rabbit/Metis/Louvain are
  * interchangeable; stream-based Fennel underperforms.
  */
class PartitionMethodsBench extends AnyFunSuite {

  // the heavier half of the analogues exercises partition quality most
  private lazy val rows = Eval.partitionMethods(Seq("WK", "CP", "LJ"), GraphGen.dataset)

  test("Fig 13: print the partitioner sweep") {
    println(Eval.renderPartitionMethods(rows))
    assert(rows.size == 3)
  }

  test("Fig 13 shape: all partitioners yield working GoGraph orders (rounds close to Rabbit)") {
    rows.foreach { r =>
      val rabbit = r.cells("Rabbit").rounds
      r.cells.foreach { case (name, cell) =>
        assert(cell.rounds <= 2 * rabbit + 5,
          s"${r.graph}/$name: ${cell.rounds} rounds vs Rabbit $rabbit — divide phase broke ordering")
      }
    }
  }

  test("Fig 13 shape: community methods (Rabbit/Louvain) at least match Fennel on rounds") {
    rows.foreach { r =>
      val best = math.min(r.cells("Rabbit").rounds, r.cells("Louvain").rounds)
      assert(best <= r.cells("Fennel").rounds + 2,
        s"${r.graph}: community partitioners should not lose to streaming Fennel")
    }
  }
}
