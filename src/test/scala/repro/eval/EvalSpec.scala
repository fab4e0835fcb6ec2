package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.{PageRank, SSSP, SeqEngine}
import repro.graph.GraphGen
import repro.order.DefaultOrder

/** Exercises the table-reproduction harness at unit-test scale; the bench
  * suites run the same code on the full analogues.
  */
class EvalSpec extends AnyFunSuite {

  test("tableI reports paper and synthetic sizes for all six datasets") {
    val rows = Eval.tableI(GraphGen.datasetSmall)
    assert(rows.map(_.abbr) == GraphGen.datasetNames)
    rows.foreach { r =>
      assert(r.paperV > 0 && r.paperE > 0 && r.ourV > 0 && r.ourE > 0)
    }
  }

  test("paper Table I constants match the publication") {
    assert(Eval.paperTableI("CP") == (3774768L, 18204371L))
    assert(Eval.paperTableI("IC") == (11358L, 49138L))
    assert(Eval.paperTableI("LJ") == (4033137L, 27972078L))
  }

  test("renderTableI produces one line per dataset") {
    val out = Eval.renderTableI(Eval.tableI(GraphGen.datasetSmall))
    assert(GraphGen.datasetNames.forall(out.contains))
  }

  test("tableII on the small CP analogue reproduces the paper's ordering shape") {
    val g = GraphGen.datasetSmall("CP")
    val rows = Eval.tableII(g)
    assert(rows.map(_.method) ==
      Seq("Default", "HubCluster", "DegSort", "HubSort", "Gorder", "Rabbit", "GoGraph"))
    val byName = rows.map(r => r.method -> r).toMap
    val go = byName("GoGraph"); val df = byName("Default")
    assert(go.m >= rows.map(_.m).max, "GoGraph must have the highest M")
    assert(go.mRatio >= 0.5, "Theorem 2 floor")
    Eval.algorithms.foreach { a =>
      assert(go.rounds(a.name) <= df.rounds(a.name),
        s"${a.name}: GoGraph ${go.rounds(a.name)} rounds vs Default ${df.rounds(a.name)}")
    }
  }

  test("renderTableII emits every method row and algorithm column") {
    val g = GraphGen.datasetSmall("CP")
    val out = Eval.renderTableII(Eval.tableII(g))
    Seq("GoGraph", "Default", "PageRank", "SSSP", "BFS", "PHP", "M/|E|").foreach { s =>
      assert(out.contains(s), s"missing '$s' in\n$out")
    }
  }

  test("defaultSource picks the max out-degree vertex") {
    val g = GraphGen.datasetSmall("IC")
    val s = Eval.defaultSource(g)
    assert(g.outDegree(s) == (0 until g.numVertices).map(g.outDegree).max)
  }

  test("overallPerf computes cells for every method") {
    val rows = Eval.overallPerf(Seq("IC"), GraphGen.datasetSmall, algos = Seq(SSSP))
    assert(rows.size == 1)
    assert(rows.head.cells.keySet == Orders.competitors.map(_.name).toSet)
    rows.head.cells.values.foreach(c => assert(c.rounds > 0 && c.runtimeMs >= 0))
  }

  test("timedGrid prepares each column once and runs all its programs before the next column prepares") {
    val g   = GraphGen.rmat(50, 300, seed = 1)
    val log = scala.collection.mutable.ArrayBuffer.empty[String]
    def column(name: String) = Eval.Column(name, h => {
      log += s"prepare $name"
      (p, s) => { log += s"run $name ${p.name}"; SeqEngine.async(h, p, DefaultOrder.order(h), s) }
    })
    val progs = Seq[repro.engine.VertexProgram](PageRank, SSSP)
    val rows  = Eval.timedGrid(Seq("g"), _ => g, Seq(column("a"), column("b")), progs)
    assert(log.toSeq == Seq("a", "b").flatMap(c =>
      s"prepare $c" +: progs.flatMap(p => Seq.fill(Eval.timedRuns + 1)(s"run $c ${p.name}"))))
    assert(rows.map(r => (r.graph, r.algo)) == Seq(("g", "PageRank"), ("g", "SSSP")))
    rows.foreach(r => assert(r.cells("a").rounds == r.cells("b").rounds))
  }

  test("asyncImpact orders rounds: sync >= asyncDefault >= asyncGoGraph") {
    val rows = Eval.asyncImpact(Seq("CP"), GraphGen.datasetSmall, algos = Seq(SSSP))
    val r = rows.head
    assert(r.cells("Sync+Def").rounds >= r.cells("Async+Def").rounds)
    assert(r.cells("Async+Def").rounds >= r.cells("Async+GoGraph").rounds)
  }

  test("cacheMiss reports per-method miss counts") {
    val rows = Eval.cacheMiss(Seq("IC"), GraphGen.datasetSmall)
    assert(rows.head.cells.keySet == Orders.competitors.map(_.name).toSet)
    rows.head.cells.values.foreach(m => assert(m > 0))
  }

  test("partitionCacheImpact: divide phase does not hurt cache behaviour") {
    val rows = Eval.partitionCacheImpact(Seq("WK"), GraphGen.datasetSmall)
    val r = rows.head
    assert(r.cells("with partition") > 0 && r.cells("without partition") > 0)
  }

  test("the Fig 10 table prints the reduction in percent") {
    val table = Eval.renderPartitionCacheImpact(Seq(
      Eval.Row("A", "", Map("with partition" -> 96L, "without partition" -> 100L)),
      Eval.Row("B", "", Map("with partition" -> 103L, "without partition" -> 100L))))
    assert(table.contains("4.0%") && table.contains("-3.0%"), table)
  }

  test("avgDegreeSweep runs the BA sweep (Fig 12) at small scale") {
    val rows = Eval.avgDegreeSweep(n = 1000, degs = Seq(2, 4), methods = Orders.competitors.take(2))
    assert(rows.map(_.graph) == Seq("2", "4"))
    rows.foreach(r => r.cells.values.foreach(c => assert(c.rounds > 0)))
  }

  test("partitionMethods runs all four partitioners (Fig 13) at small scale") {
    val rows = Eval.partitionMethods(Seq("IC"), GraphGen.datasetSmall)
    assert(rows.head.cells.keySet == Set("Rabbit", "Metis", "Louvain", "Fennel"))
  }

  test("convergence distances shrink monotonically for PageRank (Fig 7)") {
    val g = GraphGen.datasetSmall("CP")
    val rows = Eval.convergence(g, PageRank, rounds = 5, methods = Orders.competitors.take(2))
    rows.foreach { r =>
      r.distByRound.sliding(2).foreach {
        case Seq(a, b) => assert(b <= a + 1e-9, s"${r.method} distance increased: $a -> $b")
        case _         =>
      }
    }
  }

  test("convergence: GoGraph is at least as close as Default after round 1") {
    val g = GraphGen.datasetSmall("CP")
    val rows = Eval.convergence(g, PageRank, rounds = 1,
      methods = Seq(repro.order.DefaultOrder, repro.core.GoGraph))
    val dist = rows.map(r => r.method -> r.distByRound.head).toMap
    assert(dist("GoGraph") <= dist("Default"))
  }

  test("TableFmt renders aligned rows") {
    val out = TableFmt.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(out.startsWith("== t =="))
    assert(out.linesIterator.size == 5)
  }

  test("tableII rejects a run that does not converge") {
    val g = repro.graph.DiGraph.unweighted(3, Seq((0, 1), (1, 2)))
    val e = intercept[IllegalArgumentException] {
      Eval.tableII(g, methods = Seq(repro.order.DefaultOrder), algos = Seq(NeverConverging))
    }
    assert(e.getMessage.contains("did not converge"))
  }
}

/** PageRank whose tolerance no max |Δ| can meet, so it never converges: it
  * runs until the engine's round cap.
  */
private object NeverConverging extends PageRank(0.85, tol = -1.0)
