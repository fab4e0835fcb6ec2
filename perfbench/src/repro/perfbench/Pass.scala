package repro.perfbench

import scala.collection.mutable

/** Operation accounting shared by every pass of a run. An op is one reorder or
  * one engine run; it fails if it throws, does not converge or fails its check.
  */
final class Ops {
  var attempted = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  /** Run `body`, then `check` on its result (None = correct, Some(why) = wrong). */
  def apply[A](name: String)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += 1
    val outcome =
      try { val a = body; check(a).map(Left(_)).getOrElse(Right(a)) }
      catch { case e: Exception => Left(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    outcome match {
      case Right(a) => Some(a)
      case Left(why) =>
        failures += s"$name: $why"
        None
    }
  }

  /** An op that could not run because an op it depends on failed. */
  def skipped(name: String, because: String): Unit = {
    attempted += 1
    failures += s"$name: skipped, $because failed"
  }
}

/** What one pass measures: the end-to-end sums, the per-layer values and the
  * ops. Time is booked into `preprocess` or `iterate` by the caller's choice;
  * everything else in the pass (verification, glue) only shows in the total.
  */
final class Pass(val tracer: Tracer, val ops: Ops) {
  var preprocessNs = 0L
  var iterateNs    = 0L
  var rounds       = 0L
  var mRatio       = Double.NaN
  val layer: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def traced: Boolean = tracer.enabled

  /** Analysis for the traced run, done after the pass's total is taken. */
  val afterTotal: mutable.ArrayBuffer[() => Unit] = mutable.ArrayBuffer.empty
  def after(f: () => Unit): Unit = afterTotal += f

  def add(key: String, v: Double): Unit = layer(key) = layer.getOrElse(key, 0.0) + v
  def set(key: String, v: Double): Unit = layer(key) = v

  private def timed[A](name: String, layerName: String, metric: String)(body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = tracer.span(name, layerName)(body)
    val dt = System.nanoTime() - t0
    add(metric, dt / 1e9)
    (a, dt)
  }

  /** Preprocessing call (graph build, reorder, relabel, block build). */
  def pre[A](name: String, layerName: String, metric: String)(body: => A): A = {
    val (a, dt) = timed(name, layerName, metric)(body)
    preprocessNs += dt
    a
  }

  /** Engine call, run to convergence. */
  def iter[A](name: String, metric: String)(body: => A): A = {
    val (a, dt) = timed(name, "engine", metric)(body)
    iterateNs += dt
    a
  }

  /** Benchmark-side work of a given layer: verification or analysis. */
  def side[A](name: String, layerName: String, metric: String)(body: => A): A =
    timed(name, layerName, metric)(body)._1
}
