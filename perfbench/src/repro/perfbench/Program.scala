// Every call the benchmark makes into the program is in this file, so an API
// change (graph build, engine inputs) is absorbed here and nowhere else.
// The first packaging reaches the block engine's package-private sweep, so a
// block dataset can be built (timed as preprocessing) apart from the run.
package repro.engine {
  import org.apache.spark.sql.{Dataset, SparkSession}
  import repro.graph.DiGraph
  import repro.order.VertexOrder

  object PerfbenchBlockAccess {
    def run(spark: SparkSession, ds: Dataset[Block], g: DiGraph, prog: VertexProgram,
            order: VertexOrder, source: Int): RunResult =
      SparkBlockAsyncEngine.runOnBlocks(spark, ds, g, prog, order, source, maxRounds = 100000)
  }
}

package repro.perfbench {
  import org.apache.spark.sql.{Dataset, SparkSession}
  import repro.cache.{CacheConfig, CacheSim}
  import repro.core.{GoGraphConfig, GoGraphReorder}
  import repro.engine._
  import repro.graph.{DiGraph, GraphGen}
  import repro.order._
  import repro.partition.{Fennel, Louvain, MetisLike, Partitioner, RabbitPartition}

  /** A divide-phase partitioner that times and counts its delegate from the
    * outside; GoGraph calls it once per order.
    */
  final class TimedPartitioner(delegate: Partitioner, tracer: Tracer) extends Partitioner {
    val name: String = delegate.name
    var lastNs: Long = 0L
    var stats: Map[String, Double] = Map.empty

    def partition(g: DiGraph, k: Int): Array[Int] = {
      val t0     = System.nanoTime()
      val labels = tracer.span(s"partition.$name", "partition")(delegate.partition(g, k))
      lastNs = System.nanoTime() - t0
      if (tracer.enabled) {
        val sizes = new Array[Int](Partitioner.numParts(labels))
        labels.foreach(l => sizes(l) += 1)
        stats = Map(
          "parts"          -> sizes.length.toDouble,
          "largest_part"   -> (if (sizes.isEmpty) 0.0 else sizes.max.toDouble),
          "internal_share" -> Partitioner.internalEdges(g, labels).toDouble / math.max(1, g.numEdges),
        )
      }
      labels
    }
  }

  object Program {
    type Graph = DiGraph
    type Order = VertexOrder

    /** The four vertex programs of the paper's evaluation, by metric name. */
    val programs: Map[String, VertexProgram] =
      Map("pagerank" -> PageRank, "php" -> PHP, "sssp" -> SSSP, "bfs" -> BFS)

    def sourced(algo: String): Boolean = programs(algo).sourced

    /** Allowed relative deviation from the exact reference. A run stops when
      * max |Δ| ≤ tol; with contraction factor f the distance left to the fixed
      * point is at most tol·f/(1−f) per unit of state, times a slack of 10 for
      * the max-norm. Path programs are exact (tol = 0).
      */
    def allowedError(algo: String): Double = algo match {
      case "pagerank" => 10 * PageRank.tol * PageRank.damping / (1 - PageRank.damping)
      case "php"      => 10 * PHP.tol * PHP.penalty / (1 - PHP.penalty)
      case _          => 0.0
    }

    def references(e: EdgeList): References =
      References(e, PageRank.damping, PageRank.tol, PHP.penalty, PHP.tol)

    /** The citation model: vertex t cites earlier vertices, ids chronological;
      * a `noise` share of the edges points forward (0 gives a DAG).
      */
    def citation(n: Int, mPer: Int, seed: Long, noise: Double = 0.08): EdgeList = {
      val g   = GraphGen.citation(n, mPer, seed, noise)
      val src = new Array[Int](g.numEdges); val dst = new Array[Int](g.numEdges)
      val w   = new Array[Double](g.numEdges)
      var i   = 0
      g.foreachEdge { (u, v, wt) => src(i) = u; dst(i) = v; w(i) = wt; i += 1 }
      new EdgeList(g.numVertices, src, dst, w)
    }

    /** The edge list in the form `DiGraph.fromEdges` takes. */
    type Input = IndexedSeq[(Int, Int, Double)]
    def input(e: EdgeList): Input = IndexedSeq.tabulate(e.m)(i => (e.src(i), e.dst(i), e.w(i)))

    def build(n: Int, in: Input): Graph = DiGraph.fromEdges(n, in)
    def numEdges(g: Graph): Long        = g.numEdges.toLong
    def relabel(g: Graph, o: Order): Graph = g.relabel(o.pos)

    /** Table II's competitors other than GoGraph, in its row order. */
    val competitors: Seq[(String, Reorder)] = Seq(
      "Default" -> DefaultOrder, "HubCluster" -> HubCluster, "DegSort" -> DegreeSort,
      "HubSort" -> HubSort, "Gorder" -> Gorder, "Rabbit" -> RabbitOrder)

    /** GoGraph's divide-phase methods (Fig 13); Rabbit is the default. */
    val partitioners: Seq[Partitioner] = Seq(RabbitPartition, MetisLike, Louvain, Fennel)

    def gograph(p: Partitioner): Reorder = new GoGraphReorder(GoGraphConfig(partitioner = p))

    def order(r: Reorder, g: Graph): Order = r.order(g)

    /** Re-validate an order as a permutation; throws if it is not one. */
    def revalidate(o: Order): Order = VertexOrder.fromOrder(o.order)
    def positions(o: Order): Array[Int] = o.pos
    def identity(n: Int): Order = VertexOrder.identity(n)
    def positiveEdges(g: Graph, o: Order): Long = Metric.positiveEdges(g, o)

    def sync(g: Graph, algo: String, source: Int): RunResult =
      SeqEngine.sync(g, programs(algo), source)
    def async(g: Graph, algo: String, o: Order, source: Int): RunResult =
      SeqEngine.async(g, programs(algo), o, source)

    /** Block dataset for one order; PageRank and SSSP share it (no symmetrize). */
    def blocks(spark: SparkSession, g: Graph, o: Order, numBlocks: Int): (Dataset[Block], Graph) =
      SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, numBlocks)
    def blockRun(spark: SparkSession, ds: Dataset[Block], g: Graph, algo: String, o: Order,
                 source: Int): RunResult =
      PerfbenchBlockAccess.run(spark, ds, g, programs(algo), o, source)

    /** Misses of one in-neighbour sweep over a `cacheBytes` 16-way LRU cache. */
    def cacheMisses(g: Graph, o: Order, cacheBytes: Int): (Long, Long) = {
      val s = CacheSim.sweep(g, o, CacheConfig(numSets = cacheBytes / 64 / 16, ways = 16))
      (s.accesses, s.misses)
    }
  }
}
