package repro

import repro.core.{GoGraph, GoGraphConfig, GoGraphReorder}
import repro.engine._
import repro.eval.Eval
import repro.graph.{DiGraph, GraphGen}
import repro.order._
import repro.partition._

/** Every partitioner's labels, every reorderer's order and every engine's
  * final states (raw bits) and rounds, pinned by an FNV-1a checksum on two
  * inputs, so that a rewrite of their internals (sorts, tallies, traversals,
  * the sweep kernel) cannot change a single label, position or state bit.
  */
class PinnedOutputsSpec extends SparkSpec {

  private lazy val citation = GraphGen.citation(2000, 5, seed = 7)
  private lazy val wk       = GraphGen.datasetSmall("WK")

  private def fnv(xs: Array[Int]): Long = {
    var h = 0xcbf29ce484222325L
    xs.foreach(x => h = (h ^ x) * 0x100000001b3L)
    h
  }

  /** The raw bits of each state, high word then low word. */
  private def bits(xs: Array[Double]): Array[Int] = xs.flatMap { x =>
    val b = java.lang.Double.doubleToRawLongBits(x)
    Array((b >>> 32).toInt, b.toInt)
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

  // GoGraph's order under each divide at benchmark size, where the entry
  // merge sort, the radix sort of the result and renormalization all run
  private lazy val citation20k = GraphGen.citation(20000, 5, 1)
  Seq[(Partitioner, Long)](
    (RabbitPartition, 5928967135364927051L),
    (MetisLike, 2236530913554862563L),
    (Louvain, 3574021367669771271L),
    (Fennel, -2259820814332359885L),
  ).foreach { case (p, onCitation20k) =>
    test(s"GoGraph (${p.name} divide) order on citation(20000, 5, 1) is pinned by its checksum") {
      assert(fnv(gograph(p)(citation20k)) == onCitation20k)
    }
  }

  private def source(g: DiGraph, p: VertexProgram): Int = if (p.sourced) Eval.defaultSource(g) else -1
  private def sync(p: VertexProgram): DiGraph => RunResult = g => SeqEngine.sync(g, p, source(g, p))
  private def async(r: Reorder)(p: VertexProgram): DiGraph => RunResult =
    g => SeqEngine.async(g, p, r.order(g), source(g, p))
  private def block(p: VertexProgram): DiGraph => RunResult =
    g => SparkBlockAsyncEngine.run(spark, g, p, DefaultOrder.order(g), source(g, p), numBlocks = 4)

  // (engine, program, its (state checksum, rounds) on citation(2000, 5, 7), the same on datasetSmall("WK"));
  // sourced programs start at Eval.defaultSource
  Seq[(String, VertexProgram => DiGraph => RunResult, VertexProgram, (Long, Int), (Long, Int))](
    ("sync", sync, PageRank, (-4848182410338496991L, 99), (4302791226609561181L, 60)),
    ("sync", sync, PHP, (-5047402289769702389L, 55), (-8518265885966911217L, 36)),
    ("sync", sync, SSSP, (4561840133695990693L, 17), (-138160804116537499L, 9)),
    ("sync", sync, BFS, (-8485388711279826011L, 14), (-474675777291886747L, 7)),
    ("async Default", async(DefaultOrder), PageRank, (7017441848452077982L, 72), (-5939837688810004013L, 33)),
    ("async Default", async(DefaultOrder), PHP, (-216881952599612287L, 41), (-1728193984628400367L, 20)),
    ("async Default", async(DefaultOrder), SSSP, (4561840133695990693L, 11), (-138160804116537499L, 7)),
    ("async Default", async(DefaultOrder), BFS, (-8485388711279826011L, 10), (-474675777291886747L, 5)),
    ("async GoGraph", async(GoGraph), PageRank, (-2094994108627459110L, 39), (-406129793014663894L, 23)),
    ("async GoGraph", async(GoGraph), PHP, (-4053692876042012804L, 22), (6031844569940786192L, 15)),
    ("async GoGraph", async(GoGraph), SSSP, (4561840133695990693L, 9), (-138160804116537499L, 5)),
    ("async GoGraph", async(GoGraph), BFS, (-8485388711279826011L, 6), (-474675777291886747L, 4)),
    ("4-block Default", block, PageRank, (-5983843668062149150L, 87), (-7058280330716884352L, 54)),
    ("4-block Default", block, SSSP, (4561840133695990693L, 15), (-138160804116537499L, 8)),
    ("4-block Default", block, PHP, (8799714154231859092L, 49), (1847799035128589217L, 32)),
    ("4-block Default", block, BFS, (-8485388711279826011L, 13), (-474675777291886747L, 6)),
  ).foreach { case (engine, run, prog, onCitation, onWk) =>
    test(s"$engine ${prog.name} states and rounds are pinned by their checksum") {
      def pin(g: DiGraph): (Long, Int) = { val r = run(prog)(g); (fnv(bits(r.states)), r.rounds) }
      assert(pin(citation) == onCitation, "on citation(2000, 5, 7)")
      assert(pin(wk) == onWk, "on datasetSmall(\"WK\")")
    }
  }

  test("Fig 7 distances (Eval.convergence, 8 rounds, every competitor) are pinned by their checksum") {
    val cp = GraphGen.datasetSmall("CP")
    def pin(p: VertexProgram): Long = fnv(bits(Eval.convergence(cp, p, rounds = 8).flatMap(_.distByRound).toArray))
    assert(pin(PageRank) == 5046906889797213608L, "PageRank")
    assert(pin(SSSP) == -5740948878433278363L, "SSSP (converges before round 8 in some orders)")
  }
}
