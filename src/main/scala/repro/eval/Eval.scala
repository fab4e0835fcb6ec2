package repro.eval

import repro.core.{GoGraph, GoGraphConfig, GoGraphReorder}
import repro.engine._
import repro.graph.{DiGraph, GraphGen}
import repro.order._
import repro.partition.{Fennel, Louvain, MetisLike, Partitioner, RabbitPartition}

/** Plain-text table rendering for the reproduced tables. */
object TableFmt {
  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = headers +: rows
    val widths = headers.indices.map(c => all.map(_(c).length).max)
    def line(cells: Seq[String]) =
      cells.zip(widths).map { case (s, w) => s.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", line(headers), sep) ++ rows.map(line)).mkString("\n")
  }
}

/** The reorder methods of the paper's Table II, in its row order. */
object Orders {
  def competitors: Seq[Reorder] =
    Seq(DefaultOrder, HubCluster, DegreeSort, HubSort, Gorder, RabbitOrder, GoGraph)
}

/** Table/figure reproduction logic — shared by `jobs/` entrypoints and the
  * `bench/` suites so both print identical tables.
  */
object Eval {

  /** The four workloads of the paper's evaluation. */
  def algorithms: Seq[VertexProgram] = Seq(PageRank, SSSP, BFS, PHP)

  /** Deterministic source for sourced algorithms: max out-degree vertex
    * (largest reachable frontier — mirrors the usual hub-source choice).
    */
  def defaultSource(g: DiGraph): Int =
    (0 until g.numVertices).maxBy(v => (g.outDegree(v), -v))

  /** A run whose rounds or time a table reports must have converged. */
  private def converged(res: RunResult, what: => String): RunResult = {
    require(res.converged, s"$what did not converge in ${res.rounds} rounds")
    res
  }

  // ------------------------------------------------------------------
  // Table I — datasets
  // ------------------------------------------------------------------

  final case class DatasetRow(abbr: String, paperV: Long, paperE: Long, ourV: Long, ourE: Long)

  val paperTableI: Map[String, (Long, Long)] = Map(
    "IC" -> (11358L, 49138L),
    "SK" -> (121422L, 367579L),
    "GL" -> (875713L, 5241298L),
    "WK" -> (1864433L, 4652358L),
    "CP" -> (3774768L, 18204371L),
    "LJ" -> (4033137L, 27972078L),
  )

  def tableI(load: String => DiGraph = GraphGen.dataset): Seq[DatasetRow] =
    GraphGen.datasetNames.map { name =>
      val g      = load(name)
      val (v, e) = paperTableI(name)
      DatasetRow(name, v, e, g.numVertices.toLong, g.numEdges.toLong)
    }

  def renderTableI(rows: Seq[DatasetRow]): String =
    TableFmt.render(
      "Table I: Datasets (paper vs synthetic analogue)",
      Seq("Dataset", "paper |V|", "paper |E|", "ours |V|", "ours |E|"),
      rows.map(r => Seq(r.abbr, r.paperV.toString, r.paperE.toString, r.ourV.toString, r.ourE.toString)),
    )

  // ------------------------------------------------------------------
  // Table II — M(·) and iteration rounds per reorder method (CP graph)
  // ------------------------------------------------------------------

  final case class TableIIRow(method: String, m: Long, mRatio: Double, rounds: Map[String, Int])

  def tableII(g: DiGraph, methods: Seq[Reorder] = Orders.competitors,
              algos: Seq[VertexProgram] = algorithms): Seq[TableIIRow] = {
    val source = defaultSource(g)
    methods.map { r =>
      val o = r.order(g)
      val rounds = algos.map { prog =>
        val src = if (prog.sourced) source else -1
        prog.name -> converged(SeqEngine.async(g, prog, o, src), s"${r.name} ${prog.name}").rounds
      }.toMap
      TableIIRow(r.name, Metric.positiveEdges(g, o), Metric.ratio(g, o), rounds)
    }
  }

  def renderTableII(rows: Seq[TableIIRow], algos: Seq[VertexProgram] = algorithms): String =
    TableFmt.render(
      "Table II: Metric and iteration rounds on CP analogue",
      Seq("Reorder method", "M", "M/|E|") ++ algos.map(_.name),
      rows.map(r =>
        Seq(r.method, r.m.toString, f"${r.mRatio}%.2f") ++
          algos.map(a => r.rounds(a.name).toString)),
    )

  // ------------------------------------------------------------------
  // Fig 5/6 as a table — normalized async runtime & rounds per method
  // ------------------------------------------------------------------

  final case class PerfCell(runtimeMs: Double, rounds: Int)
  final case class PerfRow(dataset: String, algo: String, cells: Map[String, PerfCell])

  /** A reordering is a *relabeling*: the reordered graph is stored with new
    * vertex ids = ordinal numbers, so the state array layout follows the
    * processing order (this is where the cache benefit comes from — the
    * paper's Fig 9 discussion). Returns (relabeled graph, relabeled source).
    */
  private def relabeled(g: DiGraph, o: repro.order.VertexOrder, source: Int): (DiGraph, Int) =
    (g.relabel(o.pos), if (source >= 0) o.pos(source) else -1)

  /** Runs per timed cell, after one untimed warm-up run. */
  val timedRuns = 5

  /** One table cell: `run` once untimed (JIT and cold caches), then
    * [[timedRuns]] times; the median wall time and the rounds of a converged
    * run.
    */
  private def timed(what: => String)(run: => RunResult): PerfCell = {
    run
    val cells = Seq.fill(timedRuns) {
      val t0  = System.nanoTime()
      val res = converged(run, what)
      PerfCell((System.nanoTime() - t0) / 1e6, res.rounds)
    }
    cells.sortBy(_.runtimeMs).apply(timedRuns / 2)
  }

  /** Time async runs on the relabeled graph (identity processing order). */
  private def timedAsync(g: DiGraph, prog: VertexProgram, src: Int): PerfCell = {
    val idOrder = repro.order.VertexOrder.identity(g.numVertices)
    timed(s"async ${prog.name}")(SeqEngine.async(g, prog, idOrder, src))
  }

  def overallPerf(datasets: Seq[String], load: String => DiGraph,
                  methods: Seq[Reorder] = Orders.competitors,
                  algos: Seq[VertexProgram] = algorithms): Seq[PerfRow] =
    datasets.flatMap { name =>
      val g      = load(name)
      val source = defaultSource(g)
      val byMethod = methods.map { r =>
        val (g2, s2) = relabeled(g, r.order(g), source)
        (r.name, g2, s2)
      }
      algos.map { prog =>
        val cells = byMethod.map { case (mName, g2, s2) =>
          mName -> timedAsync(g2, prog, if (prog.sourced) s2 else -1)
        }.toMap
        PerfRow(name, prog.name, cells)
      }
    }

  def renderOverallPerf(rows: Seq[PerfRow], methods: Seq[Reorder] = Orders.competitors): String = {
    val names = methods.map(_.name)
    TableFmt.render(
      "Fig 5/6 (as table): normalized async runtime (rounds) vs Default",
      Seq("Dataset", "Algo") ++ names,
      rows.map { r =>
        val base = r.cells("Default")
        Seq(r.dataset, r.algo) ++ names.map { m =>
          val c = r.cells(m)
          f"${c.runtimeMs / math.max(1e-9, base.runtimeMs)}%.2f (${c.rounds})"
        }
      },
    )
  }

  // ------------------------------------------------------------------
  // Fig 8 as a table — Sync+Def vs Async+Def vs Async+GoGraph
  // ------------------------------------------------------------------

  final case class AsyncImpactRow(dataset: String, algo: String,
                                  syncDef: PerfCell, asyncDef: PerfCell, asyncGo: PerfCell)

  def asyncImpact(datasets: Seq[String], load: String => DiGraph,
                  algos: Seq[VertexProgram] = Seq(PageRank, SSSP)): Seq[AsyncImpactRow] =
    datasets.flatMap { name =>
      val g            = load(name)
      val source       = defaultSource(g)
      val (gGo, srcGo) = relabeled(g, GoGraph.order(g), source)
      algos.map { prog =>
        val src = if (prog.sourced) source else -1
        AsyncImpactRow(name, prog.name,
          timed(s"$name sync ${prog.name}")(SeqEngine.sync(g, prog, src)),
          timedAsync(g, prog, src), // default order = identity layout
          timedAsync(gGo, prog, if (prog.sourced) srcGo else -1))
      }
    }

  def renderAsyncImpact(rows: Seq[AsyncImpactRow]): String =
    TableFmt.render(
      "Fig 8 (as table): update mode × order, normalized runtime (rounds)",
      Seq("Dataset", "Algo", "Sync+Def", "Async+Def", "Async+GoGraph", "speedup"),
      rows.map { r =>
        val b = r.syncDef.runtimeMs
        def cell(c: PerfCell) = f"${c.runtimeMs / math.max(1e-9, b)}%.2f (${c.rounds})"
        Seq(r.dataset, r.algo, cell(r.syncDef), cell(r.asyncDef), cell(r.asyncGo),
          f"${b / math.max(1e-9, r.asyncGo.runtimeMs)}%.2fx")
      },
    )

  // ------------------------------------------------------------------
  // Fig 9/10 as tables — simulated cache misses
  // ------------------------------------------------------------------

  final case class CacheRow(dataset: String, misses: Map[String, Long])

  /** Simulated cache sized well below the vertex-state working set — the
    * paper's graphs are orders of magnitude larger than an L2 slice, and
    * the miss-rate contrast between orders only exists in that regime.
    * 16 KiB (64 sets × 4 ways × 64 B) vs ≥ 90 KB state arrays keeps the
    * same ratio class at our scale.
    */
  val benchCache: repro.cache.CacheConfig =
    repro.cache.CacheConfig(numSets = 64, ways = 4)

  def cacheMiss(datasets: Seq[String], load: String => DiGraph,
                methods: Seq[Reorder] = Orders.competitors): Seq[CacheRow] =
    datasets.map { name =>
      val g = load(name)
      CacheRow(name, methods.map { r =>
        r.name -> repro.cache.CacheSim.sweep(g, r.order(g), benchCache).misses
      }.toMap)
    }

  def renderCacheMiss(rows: Seq[CacheRow], methods: Seq[Reorder] = Orders.competitors): String = {
    val names = methods.map(_.name)
    TableFmt.render(
      "Fig 9 (as table): simulated cache misses per sweep (normalized to Default)",
      Seq("Dataset") ++ names,
      rows.map { r =>
        val base = r.misses("Default").toDouble
        Seq(r.dataset) ++ names.map(m => f"${r.misses(m) / math.max(1.0, base)}%.2f")
      },
    )
  }

  /** Fig 10: GoGraph with vs without the divide (partitioning) phase. */
  final case class PartitionCacheRow(dataset: String, withPart: Long, withoutPart: Long)

  def partitionCacheImpact(datasets: Seq[String], load: String => DiGraph): Seq[PartitionCacheRow] = {
    // "without partitioning": one giant subgraph (divide phase disabled)
    val noPart = new GoGraphReorder(GoGraphConfig(partitioner = new Partitioner {
      val name = "None"
      def partition(g: DiGraph, k: Int): Array[Int] = new Array[Int](g.numVertices)
    }))
    datasets.map { name =>
      val g = load(name)
      PartitionCacheRow(name,
        repro.cache.CacheSim.sweep(g, GoGraph.order(g), benchCache).misses,
        repro.cache.CacheSim.sweep(g, noPart.order(g), benchCache).misses)
    }
  }

  def renderPartitionCacheImpact(rows: Seq[PartitionCacheRow]): String =
    TableFmt.render(
      "Fig 10 (as table): cache misses, GoGraph with vs without partitioning",
      Seq("Dataset", "with partition", "without partition", "reduction"),
      rows.map(r => Seq(r.dataset, r.withPart.toString, r.withoutPart.toString,
        f"${100 * (1.0 - r.withPart.toDouble / math.max(1L, r.withoutPart))}%.1f%%")),
    )

  // ------------------------------------------------------------------
  // Fig 12 as a table — Barabási–Albert average-degree sweep (PageRank)
  // ------------------------------------------------------------------

  final case class AvgDegRow(avgDeg: Int, cells: Map[String, PerfCell])

  def avgDegreeSweep(n: Int, degs: Seq[Int] = Seq(2, 4, 6, 8),
                     methods: Seq[Reorder] = Orders.competitors): Seq[AvgDegRow] =
    degs.map { d =>
      // pForward=0.5 models the paper's undirected NetworkX BA graphs:
      // default order already at M/|E| = 0.5 but still improvable
      val g = GraphGen.barabasiAlbert(n, d, seed = 1000 + d, pForward = 0.5)
      val cells = methods.map { r =>
        val (g2, _) = relabeled(g, r.order(g), -1)
        r.name -> timedAsync(g2, PageRank, -1)
      }.toMap
      AvgDegRow(d, cells)
    }

  def renderAvgDegree(rows: Seq[AvgDegRow], methods: Seq[Reorder] = Orders.competitors): String = {
    val names = methods.map(_.name)
    TableFmt.render(
      "Fig 12 (as table): PageRank on BA graphs, runtime ms (rounds)",
      Seq("avg deg") ++ names,
      rows.map(r => Seq(r.avgDeg.toString) ++
        names.map { m => val c = r.cells(m); f"${c.runtimeMs}%.0f (${c.rounds})" }),
    )
  }

  // ------------------------------------------------------------------
  // Fig 13 as a table — GoGraph with different divide-phase partitioners
  // ------------------------------------------------------------------

  final case class PartMethodRow(dataset: String, cells: Map[String, PerfCell])

  def partitionerNames: Seq[Partitioner] = Seq(RabbitPartition, MetisLike, Louvain, Fennel)

  def partitionMethods(datasets: Seq[String], load: String => DiGraph): Seq[PartMethodRow] =
    datasets.map { name =>
      val g = load(name)
      val cells = partitionerNames.map { p =>
        val o       = new GoGraphReorder(GoGraphConfig(partitioner = p)).order(g)
        val (g2, _) = relabeled(g, o, -1)
        p.name -> timedAsync(g2, PageRank, -1)
      }.toMap
      PartMethodRow(name, cells)
    }

  def renderPartitionMethods(rows: Seq[PartMethodRow]): String = {
    val names = partitionerNames.map(_.name)
    TableFmt.render(
      "Fig 13 (as table): GoGraph divide-phase partitioner, PageRank runtime normalized to Rabbit (rounds)",
      Seq("Dataset") ++ names,
      rows.map { r =>
        val base = r.cells("Rabbit").runtimeMs
        Seq(r.dataset) ++ names.map { m =>
          val c = r.cells(m)
          f"${c.runtimeMs / math.max(1e-9, base)}%.2f (${c.rounds})"
        }
      },
    )
  }

  // ------------------------------------------------------------------
  // Fig 7 as a table — convergence distance over rounds
  // ------------------------------------------------------------------

  final case class ConvergenceRow(method: String, distByRound: Seq[Double])

  /** dist_t = |Σ x* − Σ x_t| after each async round (paper's Fig 7 metric),
    * sampled for `rounds` rounds from one run per method. A run that
    * converges before `rounds` keeps its last distance, as a run capped at
    * any later round would.
    */
  def convergence(g: DiGraph, prog: VertexProgram, rounds: Int,
                  methods: Seq[Reorder] = Orders.competitors): Seq[ConvergenceRow] = {
    val source = if (prog.sourced) defaultSource(g) else -1
    val star   = converged(SeqEngine.sync(g, prog, source), s"sync ${prog.name}").finiteSum
    methods.map { r =>
      val o    = r.order(g)
      val sums = Array.newBuilder[Double]
      // the live states are indexed by ordinal: sum them in vertex-id order
      SeqEngine.async(g, prog, o, source, maxRounds = rounds, onRound = (_, _, _, x) =>
        sums += RunResult.finiteSum(Array.tabulate(g.numVertices)(v => x(o.pos(v)))))
      val s = sums.result()
      ConvergenceRow(r.name, (0 until rounds).map(k => math.abs(star - s(math.min(k, s.length - 1)))))
    }
  }

  def renderConvergence(rows: Seq[ConvergenceRow], algo: String): String =
    TableFmt.render(
      s"Fig 7 (as table): $algo distance to convergence after k async rounds",
      Seq("Method") ++ (1 to rows.head.distByRound.size).map(k => s"k=$k"),
      rows.map(r => Seq(r.method) ++ r.distByRound.map(d => f"$d%.3g")),
    )
}
