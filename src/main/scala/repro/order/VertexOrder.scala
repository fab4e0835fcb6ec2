package repro.order

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.DiGraph

/** A vertex processing order: a permutation of `0 until n`.
  *
  * `order(i)` is the vertex processed at position `i`; `pos(v)` is the
  * ordinal number p(v) of vertex v (paper §II). The two arrays are inverse
  * permutations of each other.
  */
final class VertexOrder private (val order: Array[Int], val pos: Array[Int]) extends Serializable {
  def n: Int = order.length

  /** Ordinal number p(v). */
  def apply(v: Int): Int = pos(v)

  /** Position→vertex DataFrame `(id: long, pos: long)` for SQL-side checks. */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    pos.zipWithIndex.map { case (p, v) => (v.toLong, p.toLong) }.toSeq.toDF("id", "pos")
  }
}

object VertexOrder {

  /** Build from `order(i) = vertex at position i`; validates a permutation. */
  def fromOrder(order: Array[Int]): VertexOrder = {
    val n   = order.length
    val pos = new Array[Int](n)
    java.util.Arrays.fill(pos, -1)
    var i   = 0
    while (i < n) {
      val v = order(i)
      require(v >= 0 && v < n, s"vertex $v out of range [0,$n)")
      require(pos(v) == -1, s"vertex $v appears twice — not a permutation")
      pos(v) = i
      i += 1
    }
    new VertexOrder(order.clone(), pos)
  }

  /** The identity (Default) order. */
  def identity(n: Int): VertexOrder = fromOrder(Array.range(0, n))
}

/** The paper's metric function M(·) (Eq. 7): the number of positive edges —
  * edges (u,v) with p(u) < p(v). Self-loops never exist in [[DiGraph]].
  */
object Metric {

  /** M(O) over the driver-side graph. Parallel edges each count. */
  def positiveEdges(g: DiGraph, o: VertexOrder): Long = {
    require(o.n == g.numVertices, s"order size ${o.n} != |V|=${g.numVertices}")
    var m = 0L
    g.walkEdges((u, v, _) => if (o.pos(u) < o.pos(v)) m += 1)
    m
  }

  /** M(O) / |E| — the normalized column of the paper's Table II. */
  def ratio(g: DiGraph, o: VertexOrder): Double =
    if (g.numEdges == 0) 1.0 else positiveEdges(g, o).toDouble / g.numEdges

  /** M(O) computed with the DataFrame API over an edge list `(src, dst)` and
    * an order table `(id, pos)` — the Spark-SQL twin of [[positiveEdges]],
    * oracle-checked in tests.
    */
  def positiveEdgesDF(edges: DataFrame, order: DataFrame): DataFrame = {
    val pSrc = order.select(col("id").as("src"), col("pos").as("src_pos"))
    val pDst = order.select(col("id").as("dst"), col("pos").as("dst_pos"))
    edges
      .join(pSrc, "src")
      .join(pDst, "dst")
      .agg(sum(when(col("src_pos") < col("dst_pos"), 1L).otherwise(0L)).as("positive_edges"))
  }
}
