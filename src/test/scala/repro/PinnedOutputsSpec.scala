package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GoGraphConfig, GoGraphReorder}
import repro.graph.{DiGraph, GraphGen}
import repro.order._
import repro.partition._

/** Every partitioner's labels and every reorderer's order, pinned by an
  * FNV-1a checksum on two inputs, so that a rewrite of their internals
  * (sorts, tallies, traversals) cannot change a single label or position.
  */
class PinnedOutputsSpec extends AnyFunSuite {

  private lazy val citation = GraphGen.citation(2000, 5, seed = 7)
  private lazy val wk       = GraphGen.datasetSmall("WK")

  private def fnv(xs: Array[Int]): Long = {
    var h = 0xcbf29ce484222325L
    xs.foreach(x => h = (h ^ x) * 0x100000001b3L)
    h
  }

  private def labels(p: Partitioner): DiGraph => Array[Int] = p.partition(_, 8)
  private def order(r: Reorder): DiGraph => Array[Int]      = r.order(_).order
  private def gograph(p: Partitioner): DiGraph => Array[Int] =
    order(new GoGraphReorder(GoGraphConfig(partitioner = p)))

  // (output, its checksum on citation(2000, 5, 7), its checksum on datasetSmall("WK"))
  Seq[(String, DiGraph => Array[Int], Long, Long)](
    ("Rabbit labels", labels(RabbitPartition), 8769874589106626405L, 7437584625253709798L),
    ("Metis labels", labels(MetisLike), -6065770985649990681L, 7109491560329135459L),
    ("Louvain labels", labels(Louvain), -8101025638969716698L, -3626108757926501067L),
    ("Fennel labels", labels(Fennel), -4644085534916813095L, 1073439592658814590L),
    ("DegSort order", order(DegreeSort), 4075042314940621067L, 4296415243986558787L),
    ("HubSort order", order(HubSort), -8532906697630994589L, 4833850214180810545L),
    ("HubCluster order", order(HubCluster), -5917942952417248733L, -4312727973478421357L),
    ("Gorder order", order(Gorder), -231068082189754775L, -7428312821074380667L),
    ("Rabbit order", order(RabbitOrder), -4627190388821489669L, -894035612515571841L),
    ("GoGraph (Rabbit divide) order", gograph(RabbitPartition), 1222859658130985055L, -243942390731453239L),
    ("GoGraph (Metis divide) order", gograph(MetisLike), 5830356007112990137L, -4253858769864977559L),
    ("GoGraph (Louvain divide) order", gograph(Louvain), -3356821511118803799L, -5569809113168937609L),
    ("GoGraph (Fennel divide) order", gograph(Fennel), 6615431913885172081L, -4253858769864977559L),
  ).foreach { case (what, f, onCitation, onWk) =>
    test(s"$what is pinned by its checksum") {
      assert(fnv(f(citation)) == onCitation, "on citation(2000, 5, 7)")
      assert(fnv(f(wk)) == onWk, "on datasetSmall(\"WK\")")
    }
  }
}
