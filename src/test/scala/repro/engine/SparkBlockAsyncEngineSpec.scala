package repro.engine

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.core.GoGraph
import repro.graph.{DiGraph, GraphGen}
import repro.order.{DefaultOrder, VertexOrder}

class SparkBlockAsyncEngineSpec extends SparkSpec {

  private val fig2: DiGraph =
    DiGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 4, 4.0), (1, 4, 1.0), (4, 2, 1.0), (4, 3, 1.0)))

  test("numBlocks=1 reproduces the sequential async engine exactly (Fig 2c)") {
    val o = DefaultOrder.order(fig2)
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 1)
    assert(res.rounds == 3)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("numBlocks=1 with the reordered Fig 2d order takes 2 supersteps") {
    val o = VertexOrder.fromOrder(Array(0, 1, 4, 2, 3))
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 1)
    assert(res.rounds == 2)
  }

  test("numBlocks=|V| reproduces the synchronous engine (Fig 2b: 4 rounds)") {
    val o = DefaultOrder.order(fig2)
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 5)
    assert(res.rounds == 4)
  }

  test("PageRank identities: 1 block = async rounds, |V| blocks = sync rounds") {
    val g = GraphGen.rmat(60, 400, seed = 100)
    val o = DefaultOrder.order(g)
    val asyncRef = SeqEngine.async(g, PageRank, o)
    val syncRef  = SeqEngine.sync(g, PageRank)
    val one = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 1)
    val all = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 60)
    assert(one.rounds == asyncRef.rounds, s"1-block ${one.rounds} vs async ${asyncRef.rounds}")
    assert(all.rounds == syncRef.rounds, s"V-block ${all.rounds} vs sync ${syncRef.rounds}")
  }

  test("intermediate block counts land between async and sync rounds") {
    val g = GraphGen.datasetSmall("CP")
    val o = DefaultOrder.order(g)
    val src = (0 until g.numVertices).maxBy(g.outDegree)
    val asyncR = SeqEngine.async(g, SSSP, o, src).rounds
    val syncR  = SeqEngine.sync(g, SSSP, src).rounds
    val midR   = SparkBlockAsyncEngine.run(spark, g, SSSP, o, src, numBlocks = 4).rounds
    assert(midR >= asyncR && midR <= syncR, s"async=$asyncR mid=$midR sync=$syncR")
  }

  test("states converge to the sync fixed point regardless of block count") {
    val g = GraphGen.rmat(80, 600, seed = 101)
    val o = DefaultOrder.order(g)
    val ref = SeqEngine.sync(g, PageRank).states
    Seq(1, 3, 8).foreach { nb =>
      val res = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = nb)
      res.states.zip(ref).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-4, s"blocks=$nb: $a vs $b")
      }
    }
  }

  test("GoGraph order needs no more supersteps than Default at fixed block count (repro hint)") {
    val g = GraphGen.datasetSmall("CP")
    val src = (0 until g.numVertices).maxBy(g.outDegree)
    val defR = SparkBlockAsyncEngine.run(spark, g, SSSP, DefaultOrder.order(g), src, numBlocks = 4).rounds
    val goR  = SparkBlockAsyncEngine.run(spark, g, SSSP, GoGraph.order(g), src, numBlocks = 4).rounds
    assert(goR <= defR, s"GoGraph $goR supersteps vs Default $defR")
  }

  test("block construction covers every vertex exactly once") {
    val g = GraphGen.rmat(50, 300, seed = 102)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(50, seed = 103))
    val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 7)
    val ids = ds.collect().flatMap(b => b.lo until b.hi)
    assert(ids.sorted.toSeq == (0 until 50))
    assert(gp.numVertices == 50)
  }

  test("blocks respect contiguous ordinal ranges") {
    val g = GraphGen.rmat(40, 200, seed = 104)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(40, seed = 105))
    val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 4)
    val bs = ds.collect()
    assert(bs.map(_.lo).toSeq == 0 +: bs.map(_.hi).init.toSeq, "ranges must be contiguous, in ordinal order")
    assert(bs.last.hi == 40 && bs.forall(b => b.lo < b.hi))
    // id i of the graph the blocks cut is the vertex at ordinal i, with its in-list in order
    def ins(h: DiGraph, v: Int): Seq[Int] = { val b = Seq.newBuilder[Int]; h.foreachIn(v)(b += _); b.result() }
    (0 until 40).foreach { i =>
      assert(ins(gp, i) == ins(g, o.order(i)).map(o.pos(_)), s"in-list of ordinal $i")
      assert(gp.outDegree(i) == g.outDegree(o.order(i)), s"out-degree of ordinal $i")
    }
  }

  /** Raw bit patterns, so that equal means identical doubles. */
  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def assertSameRun(got: RunResult, want: RunResult, clue: String): Unit = {
    assert(got.rounds == want.rounds, s"$clue: rounds ${got.rounds} vs ${want.rounds}")
    assert(got.converged == want.converged, s"$clue: converged")
    assert(bits(got.states) == bits(want.states), s"$clue: states differ")
  }

  private def hub(g: DiGraph): Int = (0 until g.numVertices).maxBy(g.outDegree)

  // Every program: |V| blocks equal SeqEngine.sync and 1 block equals SeqEngine.async.
  Seq[(String, VertexProgram, DiGraph, DiGraph => Int)](
    ("Fig 2 SSSP", SSSP, fig2, _ => 0),
    ("SSSP", SSSP, GraphGen.rmat(80, 480, seed = 111), hub),
    ("PageRank", PageRank, GraphGen.rmat(80, 500, seed = 90), _ => -1),
    ("PHP", PHP, GraphGen.rmat(60, 360, seed = 92), hub),
    ("BFS", BFS, GraphGen.rmat(100, 600, seed = 91), hub),
  ).foreach { case (label, prog, g, pick) =>
    test(s"$label: |V| blocks = sync, 1 block = async, bit for bit") {
      val src = pick(g)
      val o   = DefaultOrder.order(g)
      val all = SparkBlockAsyncEngine.run(spark, g, prog, o, src, numBlocks = g.numVertices)
      val one = SparkBlockAsyncEngine.run(spark, g, prog, o, src, numBlocks = 1)
      assert(all.converged, prog.name)
      assertSameRun(all, SeqEngine.sync(g, prog, src), s"${prog.name} |V| blocks vs sync")
      assertSameRun(one, SeqEngine.async(g, prog, o, src), s"${prog.name} 1 block vs async")
    }
  }

  test("Fig 2 SSSP over |V| blocks gives the Fig 2b distances") {
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, DefaultOrder.order(fig2), 0, numBlocks = 5)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("Fig 2 SSSP distances are the same at every block count") {
    (1 to 5).foreach { nb =>
      val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, DefaultOrder.order(fig2), 0, numBlocks = nb)
      assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0), s"blocks=$nb")
    }
  }

  test("SSSP over blocks leaves unreachable vertices at infinity") {
    val g   = DiGraph.unweighted(4, Seq((0, 1), (2, 3))) // 2, 3 unreachable from 0
    val res = SparkBlockAsyncEngine.run(spark, g, SSSP, DefaultOrder.order(g), source = 0, numBlocks = 2)
    assert(res.states(2).isPosInfinity && res.states(3).isPosInfinity)
    assert(res.states.toSeq == References.dijkstra(g, 0).toSeq)
  }

  test("maxRounds caps block supersteps and reports non-convergence") {
    val g   = GraphGen.rmat(50, 300, seed = 94)
    val res = SparkBlockAsyncEngine.run(spark, g, PageRank, DefaultOrder.order(g), numBlocks = 4, maxRounds = 2)
    assert(res.rounds == 2 && !res.converged)
  }

  test("blocks cut from a GoGraph order give Dijkstra distances") {
    val g   = GraphGen.rmat(60, 360, seed = 110)
    val src = (0 until 60).maxBy(g.outDegree)
    val res = SparkBlockAsyncEngine.run(spark, g, SSSP, GoGraph.order(g), src, numBlocks = 4)
    assert(res.states.toSeq == References.dijkstra(g, src).toSeq)
  }

  // Degenerate inputs through every caller of the sweep kernel.
  Seq(
    ("empty graph", DiGraph.unweighted(0, Seq.empty), -1),
    ("all-isolated graph", DiGraph.unweighted(6, Seq.empty), 0),
    ("in-star", DiGraph.unweighted(7, (1 to 6).map(i => (i, 0))), 1),
    ("out-star", DiGraph.unweighted(7, (1 to 6).map(i => (0, i))), 0),
  ).foreach { case (label, g, src) =>
    test(s"$label: sync, async and 1, |V| and |V|+3 blocks agree with the references") {
      val n = g.numVertices
      val o = DefaultOrder.order(g)
      val unsourced = Seq[(VertexProgram, Int, Array[Double])]((PageRank, -1, References.pagerank(g)))
      val sourced =
        if (n == 0) Nil
        else Seq[(VertexProgram, Int, Array[Double])](
          (SSSP, src, References.dijkstra(g, src)), (BFS, src, References.bfsLevels(g, src)),
          (PHP, src, References.php(g, src)))
      (unsourced ++ sourced).foreach { case (prog, s, ref) =>
        val sync  = SeqEngine.sync(g, prog, s)
        val async = SeqEngine.async(g, prog, o, s)
        val one   = SparkBlockAsyncEngine.run(spark, g, prog, o, s, numBlocks = 1)
        val all   = SparkBlockAsyncEngine.run(spark, g, prog, o, s, numBlocks = n)
        val more  = SparkBlockAsyncEngine.run(spark, g, prog, o, s, numBlocks = n + 3)
        assertSameRun(one, async, s"${prog.name} 1 block vs async")
        assertSameRun(all, sync, s"${prog.name} |V| blocks vs sync")
        assertSameRun(more, sync, s"${prog.name} |V|+3 blocks vs sync")
        Seq(sync, async).foreach { r =>
          assert(r.converged, prog.name)
          assert(r.states.length == n)
          r.states.zip(ref).foreach { case (a, b) =>
            assert(a == b || math.abs(a - b) < 1e-4, s"${prog.name}: $a vs reference $b")
          }
        }
      }
    }
  }

  test("runOnBlocks over blocks(…) equals run bit for bit at 1, 4, 8, 16 and |V| blocks") {
    val g = GraphGen.rmat(40, 240, seed = 112)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(40, seed = 117))
    Seq(1, 4, 8, 16, g.numVertices).foreach { nb =>
      val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, nb)
      assertSameRun(SparkBlockAsyncEngine.runOnBlocks(spark, ds, gp, PageRank, o, -1, 100000),
        SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = nb), s"blocks=$nb")
    }
  }

  private def persisted: Set[Int] = spark.sparkContext.getPersistentRDDs.keySet.toSet

  test("run leaves no persisted RDD behind: converged, capped and failing runs") {
    val g = GraphGen.rmat(50, 300, seed = 113)
    val o = DefaultOrder.order(g)
    val before = persisted
    assert(SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 4).converged)
    assert(persisted == before, "after a converged run")
    assert(!SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 4, maxRounds = 2).converged)
    assert(persisted == before, "after a run capped by maxRounds")
    // a block that reaches past |V|: its task throws in every superstep
    val broken = spark.createDataset(Seq(Block(0, g.numVertices + 1)))(
      org.apache.spark.sql.Encoders.product[Block]).cache()
    try {
      broken.collect()
      val withBroken = persisted
      val e = intercept[org.apache.spark.SparkException] {
        SparkBlockAsyncEngine.runOnBlocks(spark, broken, g, PageRank, o, -1, 100000)
      }
      assert(e.getMessage.contains("ArrayIndexOutOfBoundsException"))
      assert(persisted == withBroken, "after a failing run")
    } finally broken.unpersist()
  }

  test("runOnBlocks twice on one block dataset gives identical bits and keeps it cached") {
    val g = GraphGen.rmat(60, 360, seed = 114)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(60, seed = 115))
    val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 4)
    ds.cache()
    try {
      val first     = SparkBlockAsyncEngine.runOnBlocks(spark, ds, gp, PageRank, o, -1, 100000)
      val afterOne  = persisted
      val second    = SparkBlockAsyncEngine.runOnBlocks(spark, ds, gp, PageRank, o, -1, 100000)
      assert(first.converged)
      assertSameRun(second, first, "second run on the same blocks")
      assert(persisted == afterOne, "the second run leaves no persisted RDD behind")
      assert(ds.storageLevel.useMemory, "the caller's block dataset is still cached")
    } finally ds.unpersist()
  }

  test("sourced programs reject a source outside the graph, over blocks too") {
    val g = GraphGen.rmat(30, 120, seed = 120)
    val o = DefaultOrder.order(g)
    val before = persisted
    for (prog <- Seq[VertexProgram](SSSP, BFS, PHP); s <- Seq(-1, g.numVertices))
      intercept[IllegalArgumentException](SparkBlockAsyncEngine.run(spark, g, prog, o, s, numBlocks = 4))
    val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, SSSP, o, 4)
    intercept[IllegalArgumentException](SparkBlockAsyncEngine.runOnBlocks(spark, ds, gp, SSSP, o, -1, 100000))
    assert(persisted == before)
  }

  test("a run launches one Spark job per superstep plus its set-up") {
    val sc  = spark.sparkContext
    val g   = GraphGen.rmat(2000, 12000, seed = 116)
    val o   = DefaultOrder.order(g)
    val key = "repro.test.marker"
    val before = persisted
    /** `run` converges in more than 2 supersteps and launches one job for each. */
    def oneJobPerSuperstep(label: String)(run: => RunResult): Unit = {
      val jobs   = new java.util.concurrent.atomic.AtomicInteger
      val marked = new java.util.concurrent.CountDownLatch(1)
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit =
          if (e.properties != null && e.properties.getProperty(key) != null) marked.countDown()
          else jobs.incrementAndGet()
      }
      sc.addSparkListener(listener)
      try {
        val res = run
        // events reach a listener in order: once the marker job is seen, so are the run's jobs
        sc.setLocalProperty(key, "1")
        try sc.parallelize(Seq(0), 1).count() finally sc.setLocalProperty(key, null)
        assert(marked.await(60, java.util.concurrent.TimeUnit.SECONDS), "marker job not seen")
        assert(res.converged && res.rounds > 2, label)
        assert(jobs.get == res.rounds, s"$label: ${jobs.get} jobs for ${res.rounds} supersteps")
        assert(persisted == before, label)
      } finally sc.removeSparkListener(listener)
    }
    oneJobPerSuperstep("run at 4 blocks")(SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 4))
    oneJobPerSuperstep("runOnBlocks over blocks(…, 8)") {
      val (ds, gp) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 8)
      SparkBlockAsyncEngine.runOnBlocks(spark, ds, gp, PageRank, o, -1, 100000)
    }
  }
}
