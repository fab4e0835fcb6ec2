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
      val o   = r.order(g)
      val run = relabeled(g, o)
      val rounds = algos.map { prog =>
        prog.name -> converged(run(prog, if (prog.sourced) source else -1), s"${r.name} ${prog.name}").rounds
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

  /** A reordering is a *relabeling*: the reordered graph is stored with new
    * vertex ids = ordinal numbers, so the state array layout follows the
    * processing order (this is where the cache benefit comes from — the
    * paper's Fig 9 discussion). Relabels `g` by `o` once and returns the
    * async run of a program on the copy under the identity order, from a
    * source in `g`'s ids (-1 for none).
    */
  private def relabeled(g: DiGraph, o: VertexOrder): (VertexProgram, Int) => RunResult = {
    val h  = g.relabel(o.pos)
    val id = VertexOrder.identity(h.numVertices)
    (prog, source) => SeqEngine.async(h, prog, id, if (source >= 0) o.pos(source) else -1)
  }

  // ------------------------------------------------------------------
  // The figure grids: a row per graph (and program), a cell per column
  // ------------------------------------------------------------------

  /** A row of a figure: its graph (a dataset, or Fig 12's average degree),
    * its program ("" in the cache grid) and one cell per column name.
    */
  final case class Row[C](graph: String, algo: String, cells: Map[String, C])

  /** Prints grid rows: the `labels` headers over each row's graph and, given
    * a second label, its program; then each column's value, divided by the
    * `base` column's (`%.2f`) or raw (`%.0f`) without one, and its `note`;
    * then the `extra` columns.
    */
  def renderGrid[C](title: String, labels: Seq[String], columns: Seq[String], base: Option[String],
                    rows: Seq[Row[C]])(value: C => Double, note: C => String,
                                       extra: (String, Row[C] => String)*): String =
    TableFmt.render(title, labels ++ columns ++ extra.map(_._1), rows.map { r =>
      Seq(r.graph, r.algo).take(labels.size) ++ columns.map { m =>
        val x = value(r.cells(m))
        base.fold(f"$x%.0f")(b => f"${x / math.max(1e-9, value(r.cells(b)))}%.2f") + note(r.cells(m))
      } ++ extra.map(_._2(r))
    })

  // ------------------------------------------------------------------
  // Figs 5/6, 8, 12 and 13 as tables — the timed grid
  // ------------------------------------------------------------------

  final case class PerfCell(runtimeMs: Double, rounds: Int)

  /** A column of the timed grid: `prepare` readies a graph once and returns
    * the run of a program on it from a source in the graph's ids (-1 for
    * none).
    */
  final case class Column(name: String, prepare: DiGraph => (VertexProgram, Int) => RunResult)

  /** Orders the graph by `r`, relabels it and runs async on the copy. */
  def reorderColumn(name: String, r: Reorder): Column = Column(name, g => relabeled(g, r.order(g)))

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

  /** For each graph of `names`, loaded in turn, each column prepares it
    * once and times every program of `progs` on it; sourced programs start
    * at [[defaultSource]]. A column's prepared graph is dropped before the
    * next column prepares its own, so at most one relabeled copy is
    * reachable at a time. One row per graph and program.
    */
  def timedGrid(names: Seq[String], load: String => DiGraph, columns: Seq[Column],
                progs: Seq[VertexProgram]): Seq[Row[PerfCell]] =
    names.flatMap { name =>
      val g           = load(name)
      lazy val source = defaultSource(g)
      val byColumn = columns.map { c =>
        val run = c.prepare(g)
        progs.map(p => timed(s"$name ${c.name} ${p.name}")(run(p, if (p.sourced) source else -1)))
      }
      progs.indices.map(i => Row(name, progs(i).name, columns.map(_.name).zip(byColumn.map(_(i))).toMap))
    }

  private def renderTimed(title: String, labels: Seq[String], columns: Seq[String], base: Option[String],
                          rows: Seq[Row[PerfCell]], extra: (String, Row[PerfCell] => String)*): String =
    renderGrid(title, labels, columns, base, rows)(_.runtimeMs, c => s" (${c.rounds})", extra: _*)

  private def reorderColumns(methods: Seq[Reorder]): Seq[Column] = methods.map(r => reorderColumn(r.name, r))

  /** Fig 5/6: normalized async runtime and rounds per reorder method. */
  def overallPerf(datasets: Seq[String], load: String => DiGraph,
                  methods: Seq[Reorder] = Orders.competitors,
                  algos: Seq[VertexProgram] = algorithms): Seq[Row[PerfCell]] =
    timedGrid(datasets, load, reorderColumns(methods), algos)

  def renderOverallPerf(rows: Seq[Row[PerfCell]], methods: Seq[Reorder] = Orders.competitors): String =
    renderTimed("Fig 5/6 (as table): normalized async runtime (rounds) vs Default",
      Seq("Dataset", "Algo"), methods.map(_.name), Some("Default"), rows)

  /** Fig 8: sync on the graph as given vs async under Default and GoGraph. */
  private val asyncImpactColumns = Seq(Column("Sync+Def", g => SeqEngine.sync(g, _, _)),
    reorderColumn("Async+Def", DefaultOrder), reorderColumn("Async+GoGraph", GoGraph))

  def asyncImpact(datasets: Seq[String], load: String => DiGraph,
                  algos: Seq[VertexProgram] = Seq(PageRank, SSSP)): Seq[Row[PerfCell]] =
    timedGrid(datasets, load, asyncImpactColumns, algos)

  def renderAsyncImpact(rows: Seq[Row[PerfCell]]): String =
    renderTimed("Fig 8 (as table): update mode × order, normalized runtime (rounds)",
      Seq("Dataset", "Algo"), asyncImpactColumns.map(_.name), Some("Sync+Def"), rows,
      ("speedup", r => f"${r.cells("Sync+Def").runtimeMs / math.max(1e-9, r.cells("Async+GoGraph").runtimeMs)}%.2fx"))

  /** Fig 12: PageRank on Barabási–Albert graphs, one per average degree. */
  def avgDegreeSweep(n: Int, degs: Seq[Int] = Seq(2, 4, 6, 8),
                     methods: Seq[Reorder] = Orders.competitors): Seq[Row[PerfCell]] =
    // pForward=0.5 models the paper's undirected NetworkX BA graphs:
    // default order already at M/|E| = 0.5 but still improvable
    timedGrid(degs.map(_.toString), d => GraphGen.barabasiAlbert(n, d.toInt, seed = 1000 + d.toInt, pForward = 0.5),
      reorderColumns(methods), Seq(PageRank))

  def renderAvgDegree(rows: Seq[Row[PerfCell]], methods: Seq[Reorder] = Orders.competitors): String =
    renderTimed("Fig 12 (as table): PageRank on BA graphs, runtime ms (rounds)",
      Seq("avg deg"), methods.map(_.name), None, rows)

  /** Fig 13: GoGraph under each divide-phase partitioner. */
  def partitionerNames: Seq[Partitioner] = Seq(RabbitPartition, MetisLike, Louvain, Fennel)

  def partitionMethods(datasets: Seq[String], load: String => DiGraph): Seq[Row[PerfCell]] =
    timedGrid(datasets, load, partitionerNames.map(p =>
      reorderColumn(p.name, new GoGraphReorder(GoGraphConfig(partitioner = p)))), Seq(PageRank))

  def renderPartitionMethods(rows: Seq[Row[PerfCell]]): String =
    renderTimed("Fig 13 (as table): GoGraph divide-phase partitioner, PageRank runtime normalized to Rabbit (rounds)",
      Seq("Dataset"), partitionerNames.map(_.name), Some("Rabbit"), rows)

  // ------------------------------------------------------------------
  // Figs 9 and 10 as tables — the cache grid
  // ------------------------------------------------------------------

  /** Simulated cache sized well below the vertex-state working set — the
    * paper's graphs are orders of magnitude larger than an L2 slice, and
    * the miss-rate contrast between orders only exists in that regime.
    * 16 KiB (64 sets × 4 ways × 64 B) vs ≥ 90 KB state arrays keeps the
    * same ratio class at our scale.
    */
  val benchCache: repro.cache.CacheConfig =
    repro.cache.CacheConfig(numSets = 64, ways = 4)

  /** For each graph of `names`, loaded in turn, the simulated misses of one
    * sweep in each named column's order. One row per graph.
    */
  def cacheGrid(names: Seq[String], load: String => DiGraph, columns: Seq[(String, Reorder)]): Seq[Row[Long]] =
    names.map { name =>
      val g = load(name)
      Row(name, "", columns.map { case (c, r) => c -> repro.cache.CacheSim.sweep(g, r.order(g), benchCache).misses }.toMap)
    }

  /** Fig 9: misses per reorder method. */
  def cacheMiss(datasets: Seq[String], load: String => DiGraph,
                methods: Seq[Reorder] = Orders.competitors): Seq[Row[Long]] =
    cacheGrid(datasets, load, methods.map(r => r.name -> r))

  def renderCacheMiss(rows: Seq[Row[Long]], methods: Seq[Reorder] = Orders.competitors): String =
    renderGrid("Fig 9 (as table): simulated cache misses per sweep (normalized to Default)",
      Seq("Dataset"), methods.map(_.name), Some("Default"), rows)(_.toDouble, _ => "")

  /** Fig 10: GoGraph with vs without the divide phase; "without" runs the
    * "None" divide, one part holding every vertex.
    */
  private val partitionColumns = Seq(
    "with partition"    -> GoGraph,
    "without partition" -> new GoGraphReorder(GoGraphConfig(partitioner = new Partitioner {
      val name = "None"
      def partition(g: DiGraph, k: Int): Array[Int] = new Array[Int](g.numVertices)
    })))

  def partitionCacheImpact(datasets: Seq[String], load: String => DiGraph): Seq[Row[Long]] =
    cacheGrid(datasets, load, partitionColumns)

  def renderPartitionCacheImpact(rows: Seq[Row[Long]]): String =
    renderGrid("Fig 10 (as table): cache misses, GoGraph with vs without partitioning",
      Seq("Dataset"), partitionColumns.map(_._1), None, rows)(_.toDouble, _ => "",
      ("reduction", r => f"${100 * (1.0 - r.cells("with partition").toDouble / math.max(1L, r.cells("without partition")))}%.1f%%"))

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
