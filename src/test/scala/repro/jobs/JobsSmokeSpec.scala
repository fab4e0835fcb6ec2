package repro.jobs

import java.io.{ByteArrayOutputStream, PrintStream}
import org.scalatest.funsuite.AnyFunSuite

/** Every spark-submit entrypoint runs end-to-end at `small` scale and prints
  * its table. These are the same mains a cluster user would submit.
  */
class JobsSmokeSpec extends AnyFunSuite {

  /** Encoded as UTF-8 whatever the JVM's default charset, so that a title's
    * non-ASCII characters (Fig 8's ×) reach the pins intact.
    */
  private def captureStdout(body: => Unit): String = {
    val buf = new ByteArrayOutputStream()
    Console.withOut(new PrintStream(buf, true, "UTF-8"))(body)
    buf.toString("UTF-8")
  }

  /** FNV-1a over the printed cells: the output split at `|`, each cell
    * trimmed, with what wall time decides masked as `#`: the figure before
    * each ` (` of a timed cell, Fig 8's speedup and the dash runs of the
    * separator lines (their widths follow the widest figure). Rounds, M,
    * misses and every title, header and label stay in.
    */
  private def pin(out: String): Long = {
    var h = 0xcbf29ce484222325L
    out.split('|').map(_.trim
      .replaceAll("^[0-9.]+(?= \\()", "#")
      .replaceAll("^[0-9.]+x$", "#x")
      .replaceAll("^-+$", "#"))
      .mkString("|").foreach(c => h = (h ^ c) * 0x100000001b3L)
    h
  }

  test("TableIJob prints the dataset table") {
    val out = captureStdout(TableIJob.main(Array("small")))
    assert(out.contains("Table I"))
    assert(out.contains("CP") && out.contains("LJ"))
    assert(pin(out) == 3840026587972852507L)
  }

  test("TableIIJob prints the metric/rounds grid") {
    val out = captureStdout(TableIIJob.main(Array("small")))
    assert(out.contains("Table II"))
    assert(out.contains("GoGraph") && out.contains("PageRank"))
    assert(pin(out) == -876932098336555836L)
  }

  test("OverallPerfJob prints normalized cells for selected datasets") {
    val out = captureStdout(OverallPerfJob.main(Array("small", "IC", "CP")))
    assert(out.contains("Fig 5/6"))
    assert(out.contains("IC") && out.contains("CP"))
    assert(!out.contains("| LJ"), "dataset filter must be honored")
    assert(pin(out) == 4243075175780483748L)
  }

  test("AsyncImpactJob prints the mode/order grid") {
    val out = captureStdout(AsyncImpactJob.main(Array("small", "CP")))
    assert(out.contains("Fig 8"))
    assert(out.contains("Async+GoGraph"))
    assert(pin(out) == 5542387739491975030L)
  }

  test("CacheMissJob prints Fig 9 and Fig 10 tables") {
    val out = captureStdout(CacheMissJob.main(Array("small", "IC", "WK")))
    assert(out.contains("Fig 9"))
    assert(out.contains("Fig 10"))
    assert(pin(out) == -7024305326886511278L)
  }

  test("AvgDegreeJob prints the BA sweep") {
    val out = captureStdout(AvgDegreeJob.main(Array("small")))
    assert(out.contains("Fig 12"))
    assert(out.contains("avg deg"))
    assert(pin(out) == 7422128331266463838L)
  }

  test("PartitionMethodsJob prints the partitioner sweep") {
    val out = captureStdout(PartitionMethodsJob.main(Array("small", "IC")))
    assert(out.contains("Fig 13"))
    assert(out.contains("Fennel"))
    assert(pin(out) == 5508522901392012120L)
  }

  test("ConvergenceJob prints distances for CP and LJ") {
    val out = captureStdout(ConvergenceJob.main(Array("small")))
    assert(out.contains("Fig 7"))
    assert(out.contains("PageRank/CP") && out.contains("SSSP/LJ"))
    assert(pin(out) == 188293035267861944L)
  }
}
