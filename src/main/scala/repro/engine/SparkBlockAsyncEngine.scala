package repro.engine

import org.apache.spark.sql.{Dataset, SparkSession}
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

  /** Build the block dataset for (graph, order, numBlocks). */
  def blocks(spark: SparkSession, g0: DiGraph, prog: VertexProgram,
             order: VertexOrder, numBlocks: Int): (Dataset[Block], DiGraph) = {
    import spark.implicits._
    val g = SeqEngine.prepare(g0, prog)
    val n = g.numVertices
    require(order.n == n, s"order size ${order.n} != |V|=$n")
    val nb = math.max(1, math.min(numBlocks, n))
    val bs = (0 until nb).map { b =>
      val lo = (b.toLong * n / nb).toInt
      val hi = ((b + 1).toLong * n / nb).toInt
      Block.of(g, java.util.Arrays.copyOfRange(order.order, lo, hi), b)
    }
    (spark.createDataset(bs).repartition(nb).cache(), g)
  }

  /** Run to convergence; states returned indexed by vertex id. */
  def run(spark: SparkSession, g0: DiGraph, prog: VertexProgram, order: VertexOrder,
          source: Int = -1, numBlocks: Int = 16, maxRounds: Int = 100000): RunResult = {
    val (ds, g) = blocks(spark, g0, prog, order, numBlocks)
    try runOnBlocks(spark, ds, g, prog, order, source, maxRounds)
    finally ds.unpersist()
  }

  private[engine] def runOnBlocks(spark: SparkSession, ds: Dataset[Block], g: DiGraph,
                                  prog: VertexProgram, order: VertexOrder,
                                  source: Int, maxRounds: Int): RunResult = {
    import spark.implicits._
    val n      = g.numVertices
    val bcDeg  = spark.sparkContext.broadcast(Array.tabulate(n)(g.outDegree))
    var x      = Array.tabulate(n)(v => prog.init(v, source))
    var rounds = 0
    var converged = false
    while (!converged && rounds < maxRounds) {
      val bcX = spark.sparkContext.broadcast(x)
      val swept: Array[(Array[Int], Array[Double], Double)] = ds
        .map { blk =>
          // private copy: in-block vertices read the states updated before them
          val local = bcX.value.clone()
          val d     = Sweep(blk, prog, bcDeg.value, local, local, source)
          (blk.vids, blk.vids.map(v => local(v)), d)
        }
        .collect()
      bcX.destroy()
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
    bcDeg.destroy()
    RunResult(x, rounds, converged)
  }
}
