package repro.engine

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.graph.DiGraph
import repro.order.VertexOrder

/** Distributed adaptation of the paper's asynchronous mode (Eq. 2).
  *
  * The processing order is cut into `numBlocks` contiguous ordinal ranges,
  * one per Spark task. Within a superstep, each block runs a sequential
  * Gauss–Seidel sweep over its vertices *in processing order*, reading
  * current-superstep states for in-block in-neighbors already updated this
  * sweep and previous-superstep states (broadcast) for everything else.
  * Cross-block states synchronize once per superstep.
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

  /** Build the block dataset for (graph, order, numBlocks): one block per
    * partition, partition `b` holding block `b`.
    */
  def blocks(spark: SparkSession, g0: DiGraph, prog: VertexProgram,
             order: VertexOrder, numBlocks: Int): (Dataset[Block], DiGraph) = {
    val g = SeqEngine.prepare(g0, prog)
    val n = g.numVertices
    require(order.n == n, s"order size ${order.n} != |V|=$n")
    val nb = math.max(1, math.min(numBlocks, n))
    val bs = (0 until nb).map { b =>
      val lo = (b.toLong * n / nb).toInt
      val hi = ((b + 1).toLong * n / nb).toInt
      Block.of(g, java.util.Arrays.copyOfRange(order.order, lo, hi), b)
    }
    (spark.createDataset(bs)(blockEncoder).repartitionByRange(nb, col("bid")).cache(), g)
  }

  /** Run to convergence; states returned indexed by vertex id. */
  def run(spark: SparkSession, g0: DiGraph, prog: VertexProgram, order: VertexOrder,
          source: Int = -1, numBlocks: Int = 16, maxRounds: Int = 100000): RunResult = {
    val (ds, g) = blocks(spark, g0, prog, order, numBlocks)
    try runOnBlocks(spark, ds, g, prog, order, source, maxRounds)
    finally ds.unpersist()
  }

  /** Runs supersteps over a block dataset built by [[blocks]] until
    * convergence or `maxRounds`. The blocks are decoded out of the dataset
    * once per run into a persisted RDD, and every superstep maps that RDD;
    * the RDD and the broadcasts are released on return or failure, while
    * `ds` stays cached for the caller. `order` is unused (the blocks already
    * carry it); it stays in the signature for the benchmark's call.
    */
  private[engine] def runOnBlocks(spark: SparkSession, ds: Dataset[Block], g: DiGraph,
                                  prog: VertexProgram, order: VertexOrder,
                                  source: Int, maxRounds: Int): RunResult = {
    val sc     = spark.sparkContext
    val n      = g.numVertices
    val rdd    = ds.rdd.persist(StorageLevel.MEMORY_ONLY)
    val bcDeg  = sc.broadcast(Array.tabulate(n)(g.outDegree))
    var x      = Array.tabulate(n)(v => prog.init(v, source))
    var rounds = 0
    var converged = false
    try {
      while (!converged && rounds < maxRounds) {
        val bcX = sc.broadcast(x)
        val swept: Array[(Array[Int], Array[Double], Double)] =
          try rdd.map { blk =>
            // private copy: in-block vertices read the states updated before them
            val local = bcX.value.clone()
            val d     = Sweep(blk, prog, bcDeg.value, local, local, source)
            (blk.vids, blk.vids.map(v => local(v)), d)
          }.collect()
          finally bcX.destroy()
        val next = x.clone()
        var maxDelta = 0.0
        swept.foreach { case (vids, vals, d) =>
          if (d > maxDelta) maxDelta = d
          var i = 0
          while (i < vids.length) { next(vids(i)) = vals(i); i += 1 }
        }
        x = next
        rounds += 1
        converged = maxDelta <= prog.tol
      }
      RunResult(x, rounds, converged)
    } finally {
      bcDeg.destroy()
      rdd.unpersist()
    }
  }
}
