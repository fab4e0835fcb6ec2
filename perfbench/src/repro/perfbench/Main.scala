package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession

/** Runs one workload: set-up, then untraced passes (and, with `--trace 1`,
  * traced passes alternating with them) until `--seconds` is used. The last line of stdout is a JSON object of raw metric values that
  * `perfbench/run.py` turns into the benchmark's result line.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--vertices N]
  * (`--vertices` overrides the workload's input size, for one-off probes.)
  */
object Main {
  /** Input generation runs this many times; `setup_s` counts the median. */
  val SetupRepeats = 3
  /** Bytes moved per edge visit by the sequential sweep, computed: 4 B
    * adjacency + 8 B weight + 8 B neighbour state + 4 B out-degree.
    */
  val BytesPerEdge = 24.0

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path,
                        vertices: Option[Int])

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") == "1", Paths.get(m.getOrElse("out", ".")), m.get("vertices").map(_.toInt))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wl   = Workloads.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload '${opts.workload}'; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    Files.createDirectories(opts.out)
    val tracer = new Tracer
    val ops    = new Ops

    // ---- set-up: JVM and Spark start, input generation (repeated; the
    // median counts), then a settling pass of the same operations: the first
    // pass in a process pays for JIT compilation, the engines' callsites
    // going megamorphic and Spark codegen ----
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark  = if (wl.needsSpark) Some(startSpark(opts.out)) else None
    val startS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    var edges: EdgeList = null
    var input: Program.Input = null
    val inputS = (0 until SetupRepeats).map { _ =>
      edges = null; input = null
      val t0 = System.nanoTime()
      edges = wl.generate(opts.seed, opts.vertices.getOrElse(wl.vertices))
      input = Program.input(edges)
      (System.nanoTime() - t0) / 1e9
    }
    val ctx    = Ctx(edges, input, Program.references(edges), spark)
    val settleCtx = wl.settleInput(opts.seed, edges.n)
      .map(e => Ctx(e, Program.input(e), Program.references(e), spark)).getOrElse(ctx)
    System.gc()
    val (settle, settleS, _) = runPass(wl, settleCtx, tracer, ops, traced = false)
    val setupS = startS + median(inputS) + settleS
    println(f"setup: start $startS%.2f s + input ${inputS.map(t => f"$t%.2f").mkString(" ")} s + settling pass " +
      f"$settleS%.2f s = setup_s $setupS%.3f; |V|=${edges.n} |E|=${edges.properEdges} source=${edges.source}")

    // ---- timed passes; with --trace 1 they alternate untraced, traced. At
    // least two untraced: the first after the settling pass can still run
    // slower, and a median over one or two passes by run would be bimodal ----
    val untraced = mutable.ArrayBuffer.empty[(Pass, Double)]
    val traced   = mutable.ArrayBuffer.empty[(Pass, Double, Int)]
    val t0       = System.nanoTime()
    def elapsed  = (System.nanoTime() - t0) / 1e9
    def longest  = (untraced.map(_._2) ++ traced.map(_._2)).max
    var next     = false // false: untraced pass, true: traced pass
    def minimum  = untraced.size >= 2 && (!opts.trace || traced.nonEmpty)
    while (!minimum || elapsed + longest <= opts.seconds) {
      System.gc()
      if (!next) untraced += (runPass(wl, ctx, tracer, ops, traced = false) match { case (p, s, _) => (p, s) })
      else traced += runPass(wl, ctx, tracer, ops, traced = true)
      if (opts.trace) next = !next
    }
    def show(ps: Seq[(Pass, Double)]) =
      ps.map { case (p, t) => f"$t%.2f (pre ${p.preprocessNs / 1e9}%.2f, iter ${p.iterateNs / 1e9}%.2f)" }.mkString(" ")
    println(s"passes, total s: untraced ${show(untraced.toSeq)}" +
      (if (opts.trace) s"; traced ${show(traced.map(t => (t._1, t._2)).toSeq)}" else ""))

    // deterministic counts must repeat exactly across the passes of one seed
    val all = (if (settleCtx eq ctx) Seq(settle) else Nil) ++ untraced.map(_._1) ++ traced.map(_._1)
    if (all.map(_.rounds).distinct.size > 1) ops.failures += s"rounds differ between passes: ${all.map(_.rounds)}"
    if (all.map(_.mRatio).distinct.size > 1) ops.failures += s"m_ratio differs between passes: ${all.map(_.mRatio)}"

    val metrics = mutable.LinkedHashMap.empty[String, Double]
    val totals  = untraced.map(_._2)
    metrics("setup_s")      = setupS
    metrics("total_s")      = median(totals)
    metrics("preprocess_s") = median(untraced.map(_._1.preprocessNs / 1e9))
    metrics("iterate_s")    = median(untraced.map(_._1.iterateNs / 1e9))
    metrics("rounds")       = untraced.head._1.rounds.toDouble
    metrics("m_ratio")      = untraced.head._1.mRatio
    metrics("peak_rss_mb")  = peakRssMb()
    metrics("error_rate")   = ops.failures.size.toDouble / ops.attempted
    metrics("input.vertices") = edges.n
    if (opts.trace) {
      val layer = mutable.LinkedHashMap.empty[String, Double]
      traced.flatMap(_._1.layer.keys).distinct.foreach { k =>
        layer(k) = median(traced.map(_._1.layer.getOrElse(k, 0.0)))
      }
      val tracedTotal = median(traced.map(_._2))
      layer("trace.traced_total_s")   = tracedTotal
      layer("trace.untraced_total_s") = median(totals)
      layer("trace.overhead_s")       = tracedTotal - median(totals)
      layer("trace.spans")            = tracer.spans.count(_.run == traced.last._3).toDouble
      layer("engine.bytes_per_edge")  = BytesPerEdge
      metrics ++= layer
      writeTrace(opts, tracer, traced.map(_._3).toSeq, metrics)
    }
    spark.foreach(_.stop())

    println(s"ops: attempted ${ops.attempted}, failed ${ops.failures.size}")
    ops.failures.foreach(f => println(s"FAILED $f"))
    println(Json.obj(Seq(
      "attempted" -> ops.attempted, "failed" -> ops.failures.size,
      "failures" -> ops.failures.toSeq, "metrics" -> metrics.toSeq)))
  }

  /** One pass; a traced pass also gets JVM, Spark and per-layer derived values. */
  def runPass(wl: Workload, ctx: Ctx, tracer: Tracer, ops: Ops, traced: Boolean): (Pass, Double, Int) = {
    tracer.enabled = traced
    if (traced) tracer.run += 1
    val p        = new Pass(tracer, ops)
    val listener = if (traced) ctx.spark.map(SparkProbe.attach) else None
    val thread   = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid      = Thread.currentThread().getId
    val alloc0   = thread.getThreadAllocatedBytes(tid)
    val gc0      = gcMillis()
    val t0       = System.nanoTime()
    tracer.span("pass", "bench")(wl.pass(ctx, p))
    val total    = (System.nanoTime() - t0) / 1e9
    if (traced) {
      p.set("jvm.alloc_gb", (thread.getThreadAllocatedBytes(tid) - alloc0) / 1e9)
      p.set("jvm.gc_s", (gcMillis() - gc0) / 1e3)
      tracer.span("analysis", "bench")(p.afterTotal.foreach(_()))
      derive(p, ctx)
      listener.foreach { l =>
        SparkProbe.detach(ctx.spark.get, l)
        val blockWall = p.layer.collect { case (k, v) if k.startsWith("engine.block-") && k.endsWith("_s") => v }.sum
        p.set("block.jobs", l.jobs)
        p.set("block.task_s", l.taskRunMs / 1e3)
        p.set("block.task_deser_s", l.taskDeserMs / 1e3)
        p.set("block.result_bytes", l.resultBytes.toDouble)
        p.set("block.driver_s", blockWall - l.jobMs / 1e3)
      }
      tracer.selfTimeByLayer(tracer.run).foreach { case (layer, s) => p.set(s"self.${layer}_s", s) }
    }
    tracer.enabled = false
    (p, total, tracer.run)
  }

  /** Per-layer values derived from the pass's own counts. */
  def derive(p: Pass, ctx: Ctx): Unit = {
    val l = p.layer
    Seq("sync", "async-default", "async-gograph").foreach { mode =>
      val visits = l.getOrElse(s"engine.$mode.edge_visits", 0.0)
      val secs   = l.collect { case (k, v) if k.startsWith(s"engine.$mode.") && k.endsWith("_s") => v }.sum
      if (visits > 0) p.set(s"engine.$mode.ns_per_edge", secs * 1e9 / visits)
    }
    val steps = l.collect { case (k, v) if k.startsWith("block.") && k.endsWith(".supersteps") => v }.sum
    if (steps > 0) {
      val secs = l.collect { case (k, v) if k.startsWith("engine.block-") && k.endsWith("_s") => v }.sum
      p.set("block.superstep_ms", secs * 1e3 / steps)
      p.set("block.broadcast_bytes", 8.0 * ctx.edges.n * steps)
    }
  }

  def startSpark(out: Path): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Peak resident set of this process (VmHWM), in MB. */
  def peakRssMb(): Double =
    scala.io.Source.fromFile("/proc/self/status").getLines()
      .collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }
      .getOrElse(Double.NaN)

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toArray.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Spans of the traced passes, self time per layer and the metrics, as JSON. */
  def writeTrace(opts: Opts, tracer: Tracer, runs: Seq[Int], metrics: collection.Map[String, Double]): Unit = {
    val spans = tracer.spans.filter(s => runs.contains(s.run)).map { s =>
      Json.obj(Seq("id" -> s.id, "name" -> s.name, "layer" -> s.layer, "parent" -> s.parent,
        "run" -> s.run, "start_ns" -> s.startNs, "end_ns" -> s.endNs))
    }
    val self = runs.map(r => Json.obj(Seq("run" -> r, "self_s" -> tracer.selfTimeByLayer(r).toSeq)))
    val body = Json.obj(Seq("workload" -> opts.workload, "seed" -> opts.seed,
      "metrics" -> metrics.toSeq, "self_time_by_layer" -> Json.Raw(self.mkString("[", ",", "]")),
      "spans" -> Json.Raw(spans.mkString("[\n", ",\n", "]"))))
    Files.writeString(opts.out.resolve(s"trace-${opts.workload}-seed${opts.seed}.json"), body)
  }
}

/** Minimal JSON writer for the result line and the trace file. */
object Json {
  final case class Raw(s: String)
  def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
  def value(v: Any): String = v match {
    case Raw(s)                    => s
    case s: String                 => str(s)
    case d: Double                 => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                    => n.toString
    case n: Long                   => n.toString
    case b: Boolean                => b.toString
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) && kv.nonEmpty =>
      obj(kv.asInstanceOf[Seq[(String, Any)]])
    case xs: Seq[_]                => xs.map(value).mkString("[", ",", "]")
    case other                     => str(other.toString)
  }
  def obj(kv: Seq[(String, Any)]): String = kv.map { case (k, v) => s"${str(k)}:${value(v)}" }.mkString("{", ",", "}")
}
