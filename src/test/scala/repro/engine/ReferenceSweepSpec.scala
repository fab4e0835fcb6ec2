package repro.engine

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.graph.{DiGraph, GraphGen}
import repro.order.VertexOrder

/** The engines against [[ReferenceSweep]] on random graphs and orders: equal
  * state bits and rounds, and for async equal (max |Δ|, changed) in every
  * round.
  */
class ReferenceSweepSpec extends SparkSpec {

  private def check(prop: Prop, tests: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, res.status.toString)
  }

  private val programs = Seq(PageRank, PHP, SSSP, BFS)

  /** A random graph with parallel edges, isolated vertices and vertices
    * without out-edges, a random order, and a source that sometimes has no
    * out-edges. Half the graphs are made symmetric, each kept edge added in
    * reverse too, so 2-cycles are everywhere and min-plus changes travel back
    * and forth.
    */
  private val genCase: Gen[(DiGraph, VertexOrder, Int)] = for {
    n        <- Gen.choose(1, 16)
    isolated <- Gen.listOfN(n, Gen.frequency(1 -> true, 6 -> false))
    sinks    <- Gen.listOfN(n, Gen.frequency(1 -> true, 4 -> false))
    m        <- Gen.choose(0, 4 * n)
    edges    <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(0.5, 10.0)))
    parallel <- Gen.choose(0, m)
    source   <- Gen.choose(0, n - 1)
    sinkSrc  <- Gen.oneOf(true, false)
    sym      <- Gen.oneOf(true, false)
    seed     <- Gen.choose(0L, 1000000L)
  } yield {
    val noOut = sinks.toArray
    if (sinkSrc) noOut(source) = true
    val kept = (edges ++ edges.take(parallel).map { case (u, v, w) => (u, v, w + 1.0) }).filter {
      case (u, v, _) => !isolated(u) && !isolated(v) && !noOut(u)
    }
    val both = if (sym) kept ++ kept.map { case (u, v, w) => (v, u, w) } else kept
    (DiGraph.fromEdges(n, both), VertexOrder.fromOrder(GraphGen.randomPermutation(n, seed)), source)
  }

  /** A random graph whose in-lists are not sorted by source (edges come in
    * random order), with parallel edges of differing weights, a random order
    * and a source. Half the graphs are made symmetric.
    */
  private val genRenaming: Gen[(DiGraph, VertexOrder, Int)] = for {
    n      <- Gen.choose(1, 20)
    m      <- Gen.choose(0, 4 * n)
    edges  <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(0.5, 10.0)))
    dups   <- Gen.choose(0, m)
    source <- Gen.choose(0, n - 1)
    sym    <- Gen.oneOf(true, false)
    seed   <- Gen.choose(0L, 1000000L)
  } yield {
    val kept = edges ++ edges.take(dups).map { case (u, v, w) => (u, v, w + 0.5) }
    val both = if (sym) kept ++ kept.map { case (u, v, w) => (v, u, w) } else kept
    (DiGraph.fromEdges(n, both), VertexOrder.fromOrder(GraphGen.randomPermutation(n, seed)), source)
  }

  private def bits(r: RunResult): Seq[Long] = r.states.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def same(got: RunResult, want: RunResult): Boolean =
    got.rounds == want.rounds && got.converged == want.converged && bits(got) == bits(want)

  test("property: sync and async equal the reference sweep bit for bit, round by round") {
    check(Prop.forAll(genCase) { case (g, o, src) =>
      programs.forall { p =>
        val s     = if (p.sourced) src else -1
        val trace = collection.mutable.Buffer.empty[(Double, Int)]
        val want  = collection.mutable.Buffer.empty[(Double, Int)]
        val async = SeqEngine.async(g, p, o, s, onRound = (_, d, c, _) => trace += ((d, c)))
        same(SeqEngine.sync(g, p, s), ReferenceSweep.sync(g, p, s)) &&
          same(async, ReferenceSweep.async(g, p, o, s, want)) &&
          trace.map { case (d, c) => (java.lang.Double.doubleToRawLongBits(d), c) } ==
            want.map { case (d, c) => (java.lang.Double.doubleToRawLongBits(d), c) }
      }
    }, tests = 300)
  }

  test("property: blocks at 1, 3 and |V| equal the reference supersteps bit for bit") {
    check(Prop.forAll(genCase) { case (g, o, src) =>
      programs.forall { p =>
        val s = if (p.sourced) src else -1
        Seq(1, 3, g.numVertices).forall { nb =>
          same(SparkBlockAsyncEngine.run(spark, g, p, o, s, numBlocks = nb), ReferenceSweep.blocks(g, p, o, s, nb))
        }
      }
    }, tests = 8)
  }

  test("property: relabeling is a pure renaming: runs on g.relabel(o.pos) in id order equal the reference on g in o") {
    check(Prop.forAll(genRenaming) { case (g, o, src) =>
      val h  = g.relabel(o.pos)
      val id = VertexOrder.identity(g.numVertices)
      // states of h are indexed by ordinal of o: read them back by g's ids
      def back(r: RunResult): RunResult = r.copy(states = Array.tabulate(g.numVertices)(v => r.states(o.pos(v))))
      programs.forall { p =>
        val s  = if (p.sourced) src else -1
        val sh = if (p.sourced) o.pos(src) else -1
        same(back(SeqEngine.sync(h, p, sh)), ReferenceSweep.sync(g, p, s)) &&
          same(back(SeqEngine.async(h, p, id, sh)), ReferenceSweep.async(g, p, o, s, collection.mutable.Buffer.empty)) &&
          same(back(SparkBlockAsyncEngine.run(spark, h, p, id, sh, numBlocks = 3)), ReferenceSweep.blocks(g, p, o, s, 3))
      }
    }, tests = 10)
  }
}
