package repro.perfbench

import scala.collection.mutable

/** One closed span: a timed call into a layer, with the span that caused it. */
final case class Span(id: Int, name: String, layer: String, parent: Int, run: Int,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run.
  *
  * With `enabled = false` a span is just the call (one branch), so untraced
  * passes pay nothing for it. Spans are kept in memory and written out by
  * [[Report]] when the benchmark ends.
  */
final class Tracer {
  var enabled: Boolean = false
  /** Identifier shared by every span of one traced pass. */
  var run: Int = 0

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private val open = mutable.Stack.empty[Int]
  private var nextId = 0

  def span[A](name: String, layer: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = nextId; nextId += 1
      val parent = if (open.isEmpty) -1 else open.top
      open.push(id)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.pop()
        spans += Span(id, name, layer, parent, run, t0, t1)
      }
    }

  /** Self time per layer for one run: each span's duration minus the part
    * its child spans cover (children never overlap: calls are sequential).
    */
  def selfTimeByLayer(runId: Int): Map[String, Double] = {
    val mine     = spans.filter(_.run == runId)
    val childDur = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    mine.foreach(s => if (s.parent >= 0) childDur(s.parent) += s.durNs)
    mine.groupMapReduce(_.layer)(s => (s.durNs - childDur(s.id)) / 1e9)(_ + _)
  }
}
