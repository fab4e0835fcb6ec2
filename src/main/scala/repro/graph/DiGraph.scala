package repro.graph

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Compact immutable directed graph in CSR form (both directions).
  *
  * Vertices are dense ints `0 until numVertices`. Parallel edges are allowed
  * (the reordering metric counts edges, not neighbor pairs); self-loops are
  * dropped at construction (they are order-invariant and the paper's metric
  * ignores them — p(u) < p(u) is never true).
  *
  * This is the driver-side substrate for the reordering algorithms, which are
  * inherently sequential preprocessing, and for the engines, which sweep its
  * in-adjacency in id order (the block engine broadcasts it once per run).
  * [[DiGraph.edgesDF]] exposes the edges as a Spark DataFrame for relational
  * queries such as the M(·) metric.
  */
final class DiGraph private[graph] (
    val numVertices: Int,
    private val outOff: Array[Int],
    private val outAdj: Array[Int],
    private val outWgt: Array[Double],
    private[repro] val inOff: Array[Int],
    private[repro] val inAdj: Array[Int],
    private[repro] val inWgt: Array[Double],
) extends Serializable {

  /** Number of directed edges (parallel edges counted, self-loops excluded). */
  def numEdges: Int = outAdj.length

  def outDegree(v: Int): Int = outOff(v + 1) - outOff(v)
  def inDegree(v: Int): Int  = inOff(v + 1) - inOff(v)

  /** Every vertex's out-degree, indexed by id. */
  def outDegrees: Array[Int] = perVertex(outDegree)

  /** Total degree = in + out (parallel edges counted). */
  def degree(v: Int): Int = outDegree(v) + inDegree(v)

  /** Every vertex's in-degree, indexed by id. */
  def inDegrees: Array[Int] = perVertex(inDegree)

  /** Every vertex's total [[degree]], indexed by id. */
  def degrees: Array[Int] = perVertex(degree)

  // `Int => Int` is specialized, so this fill boxes nothing
  private def perVertex(f: Int => Int): Array[Int] = {
    val d = new Array[Int](numVertices)
    var v = 0
    while (v < numVertices) { d(v) = f(v); v += 1 }
    d
  }

  /** Apply `f` to each out-neighbor of `v`, with multiplicity, in CSR order. */
  def foreachOut(v: Int)(f: Int => Unit): Unit = {
    var i = outOff(v)
    while (i < outOff(v + 1)) { f(outAdj(i)); i += 1 }
  }

  /** Apply `f` to each in-neighbor of `v`, with multiplicity, in CSR order. */
  def foreachIn(v: Int)(f: Int => Unit): Unit = {
    var i = inOff(v)
    while (i < inOff(v + 1)) { f(inAdj(i)); i += 1 }
  }

  /** The undirected walk: `v`'s out-neighbors, then its in-neighbors, each
    * in CSR order. Every order that walks the undirected view takes its
    * tie-breaks from this sequence.
    */
  def foreachNeighbor(v: Int)(f: Int => Unit): Unit = { foreachOut(v)(f); foreachIn(v)(f) }

  /** `seeds` in breadth-first order over the undirected view: each seed not
    * yet reached, in turn, starts a traversal that reaches a neighbor `u` of
    * a reached `v` ([[foreachNeighbor]] order) when `keep(v, u)`. `keep` must
    * admit only vertices among `seeds`, which must be distinct. `reached`
    * (all false, length |V|) is scratch space that a caller may share
    * between calls: it is all false again on return.
    */
  def bfsOrder(seeds: Array[Int], reached: Array[Boolean] = new Array[Boolean](numVertices))(
      keep: (Int, Int) => Boolean): Array[Int] = {
    val order   = new Array[Int](seeds.length) // doubles as the queue
    var head    = 0; var tail = 0
    var v       = -1
    val visit   = (u: Int) => if (!reached(u) && keep(v, u)) { reached(u) = true; order(tail) = u; tail += 1 }
    var s       = 0
    while (s < seeds.length) {
      val seed = seeds(s)
      if (!reached(seed)) { reached(seed) = true; order(tail) = seed; tail += 1 }
      while (head < tail) { v = order(head); head += 1; foreachNeighbor(v)(visit) }
      s += 1
    }
    var i = 0
    while (i < order.length) { reached(order(i)) = false; i += 1 }
    order
  }

  /** Apply `f(src, dst, weight)` to every edge, in out-CSR order (by
    * source, then in each source's adjacency order). The edge walk: a lambda
    * converts to [[DiGraph.EdgeFn]], whose parameters are primitive, so no
    * value is boxed per edge.
    */
  def walkEdges(f: DiGraph.EdgeFn): Unit = {
    var u = 0
    while (u < numVertices) {
      var i = outOff(u)
      while (i < outOff(u + 1)) { f(u, outAdj(i), outWgt(i)); i += 1 }
      u += 1
    }
  }

  /** [[walkEdges]] through a `Function3`, which is not specialized and so
    * boxes all three values of every edge. Only for adapters that build an
    * object per edge anyway ([[edges]], [[edgesDF]], edge-list exports);
    * every algorithm uses [[walkEdges]].
    */
  def foreachEdge(f: (Int, Int, Double) => Unit): Unit = walkEdges(f(_, _, _))

  /** All edges as (src, dst, weight) triples. */
  def edges: Seq[(Int, Int, Double)] = {
    val b = Seq.newBuilder[(Int, Int, Double)]
    b.sizeHint(numEdges)
    foreachEdge((u, v, w) => b += ((u, v, w)))
    b.result()
  }

  /** Graph with every vertex id `v` replaced by `perm(v)`, which must be a
    * permutation of the ids; same topology. Vertex `perm(v)` keeps `v`'s
    * out-list and in-list in their order, so a sweep of the result in id
    * order folds every vertex's in-edges as a sweep of this graph would.
    */
  def relabel(perm: Array[Int]): DiGraph = {
    require(perm.length == numVertices, s"perm size ${perm.length} != $numVertices")
    val seen = new Array[Boolean](numVertices)
    perm.foreach { p =>
      require(p >= 0 && p < numVertices && !seen(p), s"perm is not a permutation of 0 until $numVertices")
      seen(p) = true
    }
    val (oOff, oAdj, oWgt) = DiGraph.scatter(perm, outOff, outAdj, outWgt)
    val (iOff, iAdj, iWgt) = DiGraph.scatter(perm, inOff, inAdj, inWgt)
    new DiGraph(numVertices, oOff, oAdj, oWgt, iOff, iAdj, iWgt)
  }

  /** Edge list as a DataFrame `(src: long, dst: long, weight: double)`. */
  def edgesDF(spark: SparkSession): DataFrame = {
    val rows = new java.util.ArrayList[Row](numEdges)
    foreachEdge((u, v, w) => rows.add(Row(u.toLong, v.toLong, w)))
    spark.createDataFrame(
      rows,
      StructType(Seq(
        StructField("src", LongType, nullable = false),
        StructField("dst", LongType, nullable = false),
        StructField("weight", DoubleType, nullable = false),
      )),
    )
  }
}

object DiGraph {

  /** A visitor of one edge (src, dst, weight) with primitive parameters; see
    * [[DiGraph.walkEdges]].
    */
  trait EdgeFn { def apply(src: Int, dst: Int, weight: Double): Unit }

  /** The CSR (`off`, `adj`, `wgt`) with list `v` moved to `perm(v)` and every
    * neighbour `u` in it renamed `perm(u)`, each list in its order.
    */
  private def scatter(perm: Array[Int], off: Array[Int], adj: Array[Int],
                      wgt: Array[Double]): (Array[Int], Array[Int], Array[Double]) = {
    val n    = perm.length
    val off2 = new Array[Int](n + 1)
    var v    = 0
    while (v < n) { off2(perm(v) + 1) = off(v + 1) - off(v); v += 1 }
    v = 0
    while (v < n) { off2(v + 1) += off2(v); v += 1 }
    val adj2 = new Array[Int](adj.length); val wgt2 = new Array[Double](wgt.length)
    v = 0
    while (v < n) {
      var i = off(v); var j = off2(perm(v))
      System.arraycopy(wgt, i, wgt2, j, off(v + 1) - i)
      while (i < off(v + 1)) { adj2(j) = perm(adj(i)); i += 1; j += 1 }
      v += 1
    }
    (off2, adj2, wgt2)
  }

  /** Build from parallel edge arrays: edge `i` is `src(i) -> dst(i)` with
    * weight `wgt(i)`. Every endpoint is validated, then self-loops are
    * dropped; the CSR keeps the input order within each adjacency list.
    * The arrays are read, not retained.
    */
  def fromArrays(numVertices: Int, src: Array[Int], dst: Array[Int], wgt: Array[Double]): DiGraph = {
    require(numVertices >= 0, "numVertices must be >= 0")
    require(src.length == dst.length && src.length == wgt.length, "edge arrays differ in length")
    val outOff = new Array[Int](numVertices + 1)
    val inOff  = new Array[Int](numVertices + 1)
    var e = 0
    while (e < src.length) {
      val u = src(e); val v = dst(e)
      require(u >= 0 && u < numVertices && v >= 0 && v < numVertices,
        s"edge ($u,$v) out of range [0,$numVertices)")
      if (u != v) { outOff(u + 1) += 1; inOff(v + 1) += 1 }
      e += 1
    }
    var i = 0
    while (i < numVertices) { outOff(i + 1) += outOff(i); inOff(i + 1) += inOff(i); i += 1 }
    val m      = outOff(numVertices)
    val outAdj = new Array[Int](m); val outW = new Array[Double](m)
    val inAdj  = new Array[Int](m); val inW  = new Array[Double](m)
    val oc     = outOff.clone(); val ic = inOff.clone()
    e = 0
    while (e < src.length) {
      val u = src(e); val v = dst(e); val w = wgt(e)
      if (u != v) {
        outAdj(oc(u)) = v; outW(oc(u)) = w; oc(u) += 1
        inAdj(ic(v))  = u; inW(ic(v))  = w; ic(v) += 1
      }
      e += 1
    }
    new DiGraph(numVertices, outOff, outAdj, outW, inOff, inAdj, inW)
  }

  /** Build from an edge triple list (see [[fromArrays]]). */
  def fromEdges(numVertices: Int, es: Seq[(Int, Int, Double)]): DiGraph = {
    val (src, dst, wgt) = es.toArray.unzip3
    fromArrays(numVertices, src, dst, wgt)
  }

  /** Unweighted convenience builder (all weights 1.0). */
  def unweighted(numVertices: Int, es: Seq[(Int, Int)]): DiGraph =
    fromEdges(numVertices, es.map { case (u, v) => (u, v, 1.0) })

  /** Build from a DataFrame with columns src, dst and optional weight (any
    * numeric type, read as `Double`). Vertex ids must be dense
    * `0 until numVertices`; any other id, and any null, is rejected before
    * it is narrowed to `Int`.
    */
  def fromDF(df: DataFrame, numVertices: Int): DiGraph = {
    val hasW = df.columns.contains("weight")
    def field(r: Row, c: String): Any = {
      val x = r.getAs[Any](c)
      require(x != null, s"null $c in edge row $r")
      x
    }
    def id(r: Row, c: String): Int = {
      val x = field(r, c) match { case l: Long => l; case i: Int => i.toLong }
      require(x >= 0 && x < numVertices, s"$c id $x out of range [0,$numVertices)")
      x.toInt
    }
    def weight(r: Row): Double =
      if (hasW) field(r, "weight") match { case x: java.lang.Number => x.doubleValue } else 1.0
    val rows = df.collect()
    fromArrays(numVertices, rows.map(id(_, "src")), rows.map(id(_, "dst")), rows.map(weight))
  }
}
