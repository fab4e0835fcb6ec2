package repro.engine

import org.apache.spark.TaskContext
import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.graph.DiGraph
import repro.order.VertexOrder

/** Distributed adaptation of the paper's asynchronous mode (Eq. 2).
  *
  * The graph is relabeled by the processing order (ids = ordinals) and its
  * ids are cut into `numBlocks` contiguous ranges. Within a superstep, each
  * block runs a sequential Gauss–Seidel sweep over its vertices *in
  * processing order*, reading current-superstep states for in-block
  * in-neighbors already updated this sweep and previous-superstep states
  * (broadcast) for everything else. Cross-block states synchronize once per
  * superstep. A superstep runs one Spark task per executor core, each
  * sweeping a contiguous run of blocks one after the other; what a block
  * reads does not depend on which task sweeps it.
  *
  * This interpolates exactly between the paper's two modes — identities
  * verified in tests:
  *   - `numBlocks = 1`  ⇒ rounds equal [[SeqEngine.async]] (pure Eq. 2);
  *   - `numBlocks = |V|` ⇒ rounds equal [[SeqEngine.sync]]  (pure Eq. 1).
  * A better order (more positive edges *inside* blocks) ⇒ fewer supersteps,
  * which is how GoGraph's preprocessing pays off on a Pregel-style runtime.
  */
object SparkBlockAsyncEngine {

  /** Derived once, not per block build: derivation reflects over `Block`. */
  private lazy val blockEncoder: Encoder[Block] = Encoders.product[Block]

  /** The lane each executor thread's tasks sweep, kept for its next task of
    * the same fold and size: a task's lane never leaves the task (it returns
    * a fresh array), and reusing it spares every task two |V|-sized
    * allocations per superstep, which measurably slowed block runs.
    */
  private val taskLane = new ThreadLocal[(Fold, Lane)]

  private def laneFor(fold: Fold, n: Int): Lane = {
    val kept = taskLane.get
    if (kept != null && kept._1 == fold && kept._2.x.length == n) kept._2
    else { val l = fold.lane(n, track = false); taskLane.set((fold, l)); l }
  }

  /** Cut the ids `0 until n` into `numBlocks` contiguous ranges. */
  private def cut(n: Int, numBlocks: Int): Array[Block] = {
    val nb = math.max(1, math.min(numBlocks, n))
    Array.tabulate(nb)(b => Block((b.toLong * n / nb).toInt, ((b + 1).toLong * n / nb).toInt))
  }

  /** The block dataset for (graph, order, numBlocks), blocks in ordinal
    * order, and the graph they are ranges of: `g` relabeled by `order`. The
    * dataset is a local relation, not cached: collecting it runs no Spark
    * job. Every program runs on the same blocks, so `prog` is unused; it
    * stays in the signature for the benchmark's call.
    */
  def blocks(spark: SparkSession, g: DiGraph, prog: VertexProgram,
             order: VertexOrder, numBlocks: Int): (Dataset[Block], DiGraph) = {
    val h = SeqEngine.inOrder(g, order)
    (spark.createDataset(cut(h.numVertices, numBlocks).toSeq)(blockEncoder), h)
  }

  /** Run to convergence; `source` and the returned states are indexed by
    * `g`'s ids.
    */
  def run(spark: SparkSession, g: DiGraph, prog: VertexProgram, order: VertexOrder,
          source: Int = -1, numBlocks: Int, maxRounds: Int = 100000): RunResult = {
    val h = SeqEngine.inOrder(g, order)
    supersteps(spark, cut(h.numVertices, numBlocks), h, prog, order, source, maxRounds)
  }

  /** Runs supersteps over a block dataset and graph built by [[blocks]]
    * until convergence or `maxRounds`. `ds` is collected once and left as
    * the caller made it; `source` and the returned states are indexed by
    * the ids of the graph `order` relabeled.
    */
  private[engine] def runOnBlocks(spark: SparkSession, ds: Dataset[Block], g: DiGraph,
                                  prog: VertexProgram, order: VertexOrder,
                                  source: Int, maxRounds: Int): RunResult =
    supersteps(spark, ds.collect(), g, prog, order, source, maxRounds)

  /** The superstep loop over the blocks `bs` of `g`, contiguous id ranges
    * in id order, whose ids are the ordinals of `order`; `source` and the
    * returned states are indexed by the ids before relabeling.
    *
    * `g` and its out-degrees are broadcast together once per run. The
    * blocks are dealt into `k = min(#blocks, defaultParallelism)` runs of
    * consecutive blocks, partition `t` of a plain parallelized RDD holding
    * run `t`, and each superstep is one job of one task per run. A task
    * loads the broadcast states into its thread's lane (every vertex is
    * folded: a task has no dirty flags) and sweeps its blocks in order;
    * after each block it copies the block's new states out and reloads the
    * block's range from the broadcast, so the next block reads exactly what
    * a task of its own would. It returns its run's new states with their
    * max |Δx| in the last slot; the driver copies them into the next
    * states. The broadcasts are released on return or failure.
    */
  private def supersteps(spark: SparkSession, bs: Array[Block], g: DiGraph, prog: VertexProgram,
                         order: VertexOrder, source: Int, maxRounds: Int): RunResult = {
    val n    = g.numVertices
    val s    = SeqEngine.sourceOrdinal(prog, order, source)
    val sc   = spark.sparkContext
    val k    = math.min(bs.length, sc.defaultParallelism)
    val runs = Array.tabulate(k)(t => bs.slice(t * bs.length / k, (t + 1) * bs.length / k))
    val rdd  = sc.parallelize(runs.toSeq, k)
    val bcG  = sc.broadcast((g, g.outDegrees))
    val fold = prog.fold
    var x    = SeqEngine.initialStates(prog, n, s)
    var rounds = 0
    var converged = false
    try {
      while (!converged && rounds < maxRounds) {
        val bcX  = sc.broadcast(x)
        val next = new Array[Double](n)
        var maxDelta = 0.0
        try sc.runJob(rdd, (_: TaskContext, it: Iterator[Array[Block]]) => {
            val run      = it.next()
            val (h, deg) = bcG.value
            val x0       = bcX.value
            val lo       = run.head.lo
            val out      = new Array[Double](run.last.hi - lo + 1)
            // private lane: in-block vertices read the states updated before them
            val lane = fold.load(x0, deg, laneFor(fold, n))
            var d    = 0.0
            var i    = 0
            while (i < run.length) {
              val blk = run(i)
              val bd  = fold.sweep(h, blk, lane, lane, deg, s).maxDelta
              if (bd > d) d = bd
              System.arraycopy(lane.x, blk.lo, out, blk.lo - lo, blk.hi - blk.lo)
              i += 1
              if (i < run.length) fold.load(x0, deg, lane, blk.lo, blk.hi)
            }
            out(out.length - 1) = d
            out
          }, runs.indices, (t: Int, r: Array[Double]) => {
            System.arraycopy(r, 0, next, runs(t).head.lo, r.length - 1)
            if (r(r.length - 1) > maxDelta) maxDelta = r(r.length - 1)
          })
        finally bcX.destroy()
        x = next
        rounds += 1
        converged = maxDelta <= prog.tol
      }
      RunResult(SeqEngine.byId(order, x), rounds, converged)
    } finally bcG.destroy()
  }
}
