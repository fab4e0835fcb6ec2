package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.perfbench.Program.{Graph, Order}

/** Inputs of a pass: the edge list, its `fromEdges` form, the exact references. */
final case class Ctx(edges: EdgeList, input: Program.Input, refs: References,
                     spark: Option[SparkSession])

/** One benchmark workload: how to generate its input and what a pass runs.
  * Every pass of a workload runs the same operations in the same order.
  */
sealed trait Workload {
  def name: String
  /** Vertices of the citation-model input. */
  def vertices: Int
  /** The input: a citation-model edge list from the seed, |E| ≈ 5·|V|. */
  def generate(seed: Long, n: Int): EdgeList = Program.citation(n, Workloads.CitesPerVertex, seed)
  /** Input of the settling pass, when one other than the timed input (None)
    * reaches the same JIT and Spark state for less. The sequential sweeps
    * need the timed input itself: settled on half the graph, their time in
    * the timed pass varied twofold between runs.
    */
  def settleInput(seed: Long, n: Int): Option[EdgeList] = None
  def needsSpark: Boolean = false
  def pass(c: Ctx, p: Pass): Unit
}

object Workloads {
  val all: Seq[Workload] = Seq(ReorderCp, IterateCpLarge, BlockCp)
  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Out-degree of the citation model: |E| ≈ 5·|V|, as the CP analogue. */
  val CitesPerVertex = 5

  private[perfbench] def key(s: String): String = s.toLowerCase

  /** Reorder op: run, re-validate, recompute M from the edge list. */
  def orderOp(c: Ctx, p: Pass, g: Graph, opName: String, metricKey: String)
             (run: => Order): Option[Order] =
    p.ops(s"order/$opName")(run) { o =>
      val valid = Program.revalidate(o)
      val m     = p.side("order.metric", "order", "order.metric_s")(Program.positiveEdges(g, valid))
      val ref   = p.side("verify.metric", "verify", "verify_s")(c.edges.positiveEdges(Program.positions(valid)))
      p.set(s"order.$metricKey.m_ratio", m.toDouble / math.max(1L, Program.numEdges(g)))
      if (m != ref) Some(s"M = $m but the edge list gives $ref") else None
    }

  /** GoGraph with a timed divide phase; books core, partition and rest times. */
  def gographOp(c: Ctx, p: Pass, g: Graph, part: repro.partition.Partitioner): Option[Order] = {
    val tp   = new TimedPartitioner(part, p.tracer)
    val pk   = key(part.name)
    val o    = orderOp(c, p, g, s"gograph-$pk", s"gograph-$pk") {
      p.pre(s"core.gograph.$pk", "core", s"core.gograph.${pk}_s")(Program.order(Program.gograph(tp), g))
    }
    p.add(s"partition.${pk}_s", tp.lastNs / 1e9)
    p.set(s"core.gograph.$pk.rest_s", p.layer.getOrElse(s"core.gograph.${pk}_s", 0.0) - tp.lastNs / 1e9)
    tp.stats.foreach { case (k, v) => p.set(s"partition.$pk.$k", v) }
    o.foreach(_ => p.set(s"core.gograph.$pk.m_ratio", p.layer(s"order.gograph-$pk.m_ratio")))
    o
  }

  /** Engine op: run to convergence and compare every state with the
    * reference; the state of original vertex v is at `pos(v)`.
    */
  def engineOp(c: Ctx, p: Pass, mode: String, algo: String, pos: Int => Int, edges: Long)
              (run: => repro.engine.RunResult): Unit =
    p.ops(s"engine/$mode/$algo")(p.iter(s"engine.$mode.$algo", s"engine.$mode.${algo}_s")(run)) { r =>
      p.rounds += r.rounds
      p.add(s"engine.$mode.$algo.rounds", r.rounds)
      p.add("engine.edge_visits", r.rounds.toDouble * edges)
      p.add(s"engine.$mode.edge_visits", r.rounds.toDouble * edges)
      if (!r.converged) Some(s"did not converge in ${r.rounds} rounds")
      else {
        val bad = p.side("verify.states", "verify", "verify_s") {
          References.firstMismatch(r.states, c.refs.of(algo), pos, Program.allowedError(algo))
        }
        if (bad < 0) None
        else Some(s"state of vertex $bad is ${r.states(pos(bad))}, reference ${c.refs.of(algo)(bad)}")
      }
    }

  def source(c: Ctx, algo: String): Int = if (Program.sourced(algo)) c.edges.source else -1

  /** Simulated misses of one in-neighbour sweep in each order (exact counts). */
  def cacheMisses(p: Pass, orders: Seq[(String, Order)], g: Graph, cacheBytes: Int): Unit =
    orders.foreach { case (k, o) =>
      val (acc, miss) = p.side(s"cache.$k", "cache", s"cache.${k}_s")(Program.cacheMisses(g, o, cacheBytes))
      p.set(s"cache.$k.misses", miss.toDouble)
      p.set(s"cache.$k.miss_rate", miss.toDouble / math.max(1L, acc))
    }

  /** Table II and Fig 13 on the CP analogue at 2/5 of its 50k vertices: the
    * Louvain divide's conquer loop is quadratic, and a pass must fit a run
    * several times, since the first passes after the settling one still run
    * slower.
    */
  object ReorderCp extends Workload {
    val name = "reorder-cp"
    val vertices = 20000
    /** An L1-sized cache: the 160 KB state array does not fit, as the
      * paper's state arrays do not fit an L2.
      */
    val CacheBytes = 32 << 10

    def pass(c: Ctx, p: Pass): Unit = {
      val g     = p.pre("graph.build", "graph", "graph.build_s")(Program.build(c.edges.n, c.input))
      val edges = Program.numEdges(g)
      val ident = Program.identity(c.edges.n)

      /** Relabel by `o` and run `algos` asynchronously on the relabeled graph. */
      def iterate(o: Order, mode: String, algos: Seq[String]): Unit = {
        val g2  = p.pre("graph.relabel", "graph", "graph.relabel_s")(Program.relabel(g, o))
        val pos = Program.positions(o)
        algos.foreach { algo =>
          val s = source(c, algo)
          engineOp(c, p, mode, algo, pos(_), edges)(Program.async(g2, algo, ident, if (s >= 0) pos(s) else -1))
        }
      }
      def skipAll(opName: String, mode: String, algos: Seq[String]): Unit =
        algos.foreach(a => p.ops.skipped(s"engine/$mode/$a", s"order/$opName"))

      val tableII = Seq("pagerank", "sssp", "bfs", "php")
      // Fig 8's baseline: synchronous iteration in the Default order
      tableII.foreach(a => engineOp(c, p, "sync", a, identity, edges)(Program.sync(g, a, source(c, a))))
      Program.competitors.foreach { case (label, r) =>
        val k    = key(label)
        val mode = s"async-$k"
        orderOp(c, p, g, k, k)(p.pre(s"order.$k", "order", s"order.${k}_s")(Program.order(r, g))) match {
          case Some(o) => iterate(o, mode, tableII)
          case None    => skipAll(k, mode, tableII)
        }
        p.set(s"order.$k.rounds", tableII.map(a => p.layer.getOrElse(s"engine.$mode.$a.rounds", 0.0)).sum)
      }
      // GoGraph with each divide method: Rabbit is Table II's GoGraph row,
      // the others are Fig 13 (PageRank only).
      Program.partitioners.foreach { part =>
        val pk    = key(part.name)
        val mode  = if (pk == "rabbit") "async-gograph" else s"async-gograph-$pk"
        val algos = if (pk == "rabbit") tableII else Seq("pagerank")
        gographOp(c, p, g, part) match {
          case Some(o) =>
            if (pk == "rabbit") {
              p.mRatio = p.layer("order.gograph-rabbit.m_ratio")
              if (p.traced) p.after(() => cacheMisses(p, Seq("default" -> ident, "gograph" -> o), g, CacheBytes))
            }
            iterate(o, mode, algos)
          case None => skipAll(s"gograph-$pk", mode, algos)
        }
      }
      p.set("order.gograph.m_ratio", p.layer.getOrElse("order.gograph-rabbit.m_ratio", Double.NaN))
      p.set("order.gograph.rounds",
        tableII.map(a => p.layer.getOrElse(s"engine.async-gograph.$a.rounds", 0.0)).sum)
    }
  }

  /** Fig 8 on a citation graph whose state array exceeds a 2 MiB L2. Runs
    * by hand; not in BENCHMARK.json, as its memory-bound sweeps varied up to
    * twofold between runs on a shared machine.
    */
  object IterateCpLarge extends Workload {
    val name = "iterate-cp-large"
    /** 8-byte states: more than 2 MiB / 8 B = 262,144 vertices, and no more,
      * since the twelve engine runs take most of a run.
      */
    val vertices   = 270000
    val CacheBytes = 2 << 20

    def pass(c: Ctx, p: Pass): Unit = {
      val n     = c.edges.n
      val g     = p.pre("graph.build", "graph", "graph.build_s")(Program.build(n, c.input))
      val edges = Program.numEdges(g)
      val ident = Program.identity(n)
      val go    = gographOp(c, p, g, Program.partitioners.head)
      go.foreach(_ => p.mRatio = p.layer("order.gograph-rabbit.m_ratio"))
      val g2    = go.map(o => p.pre("graph.relabel", "graph", "graph.relabel_s")(Program.relabel(g, o)))
      Seq("pagerank", "php", "sssp", "bfs").foreach { algo =>
        val s = source(c, algo)
        engineOp(c, p, "sync", algo, identity, edges)(Program.sync(g, algo, s))
        engineOp(c, p, "async-default", algo, identity, edges)(Program.async(g, algo, ident, s))
        (go, g2) match {
          case (Some(o), Some(gg)) =>
            val pos = Program.positions(o)
            engineOp(c, p, "async-gograph", algo, pos(_), edges)(
              Program.async(gg, algo, ident, if (s >= 0) pos(s) else -1))
          case _ => p.ops.skipped(s"engine/async-gograph/$algo", "order/gograph-rabbit")
        }
      }
      if (p.traced) go.foreach(o => p.after(() => cacheMisses(p, Seq("default" -> ident, "gograph" -> o), g, CacheBytes)))
    }
  }

  /** The Spark block-async engine on the CP analogue. */
  object BlockCp extends Workload {
    val name = "block-cp"
    val vertices = 50000
    val Blocks   = 8
    override val needsSpark = true
    /** A superstep costs about the same whatever it computes: on a DAG of
      * the same size every program converges within the DAG's depth, so
      * fewer supersteps settle codegen and the JIT at full size.
      */
    override def settleInput(seed: Long, n: Int): Option[EdgeList] =
      Some(Program.citation(n, CitesPerVertex, seed, noise = 0.0))

    def pass(c: Ctx, p: Pass): Unit = {
      val spark = c.spark.get
      val n     = c.edges.n
      val g     = p.pre("graph.build", "graph", "graph.build_s")(Program.build(n, c.input))
      val edges = Program.numEdges(g)
      val go    = gographOp(c, p, g, Program.partitioners.head)
      go.foreach(_ => p.mRatio = p.layer("order.gograph-rabbit.m_ratio"))
      val orders = Seq("default" -> Some(Program.identity(n)), "gograph" -> go)
      orders.foreach { case (ok, maybeOrder) =>
        maybeOrder match {
          case None => Seq("pagerank", "sssp").foreach(a => p.ops.skipped(s"engine/block-$ok/$a", "order/gograph-rabbit"))
          case Some(o) =>
            val (ds, gp) = p.pre("block.build", "engine", "block.build_s")(Program.blocks(spark, g, o, Blocks))
            try Seq("pagerank", "sssp").foreach { algo =>
              engineOp(c, p, s"block-$ok", algo, identity, edges)(
                Program.blockRun(spark, ds, gp, algo, o, source(c, algo)))
              p.set(s"block.$ok.$algo.supersteps", p.layer.getOrElse(s"engine.block-$ok.$algo.rounds", 0.0))
              p.set(s"block.$ok.${algo}_s", p.layer.getOrElse(s"engine.block-$ok.${algo}_s", 0.0))
            }
            finally ds.unpersist()
            if (p.traced) p.after { () =>
              val inBlock = p.side(s"verify.in_block.$ok", "verify", "verify_s")(
                c.edges.inBlockPositiveEdges(Program.positions(o), Blocks))
              p.set(s"block.$ok.in_block_positive_share", inBlock.toDouble / math.max(1L, edges))
            }
        }
      }
    }
  }
}
