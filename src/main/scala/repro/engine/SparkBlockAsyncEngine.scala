package repro.engine

import org.apache.spark.TaskContext
import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.graph.DiGraph
import repro.order.VertexOrder

/** Distributed adaptation of the paper's asynchronous mode (Eq. 2).
  *
  * The graph is relabeled by the processing order (ids = ordinals) and its
  * ids are cut into `numBlocks` contiguous ranges, one per Spark task. Within
  * a superstep, each block runs a sequential Gauss–Seidel sweep over its
  * vertices *in processing order*, reading current-superstep states for
  * in-block in-neighbors already updated this sweep and previous-superstep
  * states (broadcast) for everything else. Cross-block states synchronize
  * once per superstep.
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

  /** The cached block dataset for (graph, order, numBlocks), blocks in
    * ordinal order, and the graph they are ranges of: `g` relabeled by
    * `order`. Every program runs on the same blocks, so `prog` is unused; it
    * stays in the signature for the benchmark's call.
    */
  def blocks(spark: SparkSession, g: DiGraph, prog: VertexProgram,
             order: VertexOrder, numBlocks: Int): (Dataset[Block], DiGraph) = {
    val h = SeqEngine.inOrder(g, order)
    (spark.createDataset(cut(h.numVertices, numBlocks).toSeq)(blockEncoder).cache(), h)
  }

  /** Run to convergence; `source` and the returned states are indexed by
    * `g`'s ids.
    */
  def run(spark: SparkSession, g: DiGraph, prog: VertexProgram, order: VertexOrder,
          source: Int = -1, numBlocks: Int = 16, maxRounds: Int = 100000): RunResult = {
    val h = SeqEngine.inOrder(g, order)
    supersteps(spark, cut(h.numVertices, numBlocks), h, prog, order, source, maxRounds)
  }

  /** Runs supersteps over a block dataset and graph built by [[blocks]]
    * until convergence or `maxRounds`. `ds` is collected once and stays
    * cached for the caller; `source` and the returned states are indexed by
    * the ids of the graph `order` relabeled.
    */
  private[engine] def runOnBlocks(spark: SparkSession, ds: Dataset[Block], g: DiGraph,
                                  prog: VertexProgram, order: VertexOrder,
                                  source: Int, maxRounds: Int): RunResult =
    supersteps(spark, ds.collect(), g, prog, order, source, maxRounds)

  /** The superstep loop over the blocks `bs` of `g`, whose ids are the
    * ordinals of `order`; `source` and the returned states are indexed by
    * the ids before relabeling.
    *
    * `g` and its out-degrees are broadcast once per run; `bs(b)` is
    * partition `b` of a plain parallelized RDD, so a task carries two ints.
    * Each superstep is one job of one task per block: the task sweeps its
    * block against a private lane loaded with the broadcast states (every
    * vertex is folded: a task has no dirty flags) and returns the block's
    * new states with its max |Δx|; the driver copies them into the next
    * states. The broadcasts are released on return or failure.
    */
  private def supersteps(spark: SparkSession, bs: Array[Block], g: DiGraph, prog: VertexProgram,
                         order: VertexOrder, source: Int, maxRounds: Int): RunResult = {
    val n     = g.numVertices
    val s     = SeqEngine.sourceOrdinal(prog, order, source)
    val sc    = spark.sparkContext
    val rdd   = sc.parallelize(bs.toSeq, bs.length)
    val bcG   = sc.broadcast(g)
    val bcDeg = sc.broadcast(g.outDegrees)
    val fold  = prog.fold
    var x     = SeqEngine.initialStates(prog, n, s)
    var rounds = 0
    var converged = false
    try {
      while (!converged && rounds < maxRounds) {
        val bcX  = sc.broadcast(x)
        val next = x.clone()
        var maxDelta = 0.0
        try sc.runJob(rdd, (_: TaskContext, it: Iterator[Block]) => {
            val blk  = it.next()
            // private lane: in-block vertices read the states updated before them
            val lane = fold.load(bcX.value, bcDeg.value, laneFor(fold, n))
            val d    = fold.sweep(bcG.value, blk, lane, lane, bcDeg.value, s).maxDelta
            (java.util.Arrays.copyOfRange(lane.x, blk.lo, blk.hi), d)
          }, bs.indices, (b: Int, r: (Array[Double], Double)) => {
            System.arraycopy(r._1, 0, next, bs(b).lo, r._1.length)
            if (r._2 > maxDelta) maxDelta = r._2
          })
        finally bcX.destroy()
        x = next
        rounds += 1
        converged = maxDelta <= prog.tol
      }
      RunResult(SeqEngine.byId(order, x), rounds, converged)
    } finally {
      bcDeg.destroy()
      bcG.destroy()
    }
  }
}
