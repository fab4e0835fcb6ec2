package repro.jobs

import repro.eval.Eval

/** spark-submit entrypoint reproducing Table II: metric M(·) and iteration
  * rounds of PageRank/SSSP/BFS/PHP under the seven reorder methods, on the
  * cit-Patents analogue.
  * Usage: spark-submit --class repro.jobs.TableIIJob <jar> [small]
  */
object TableIIJob {
  def main(args: Array[String]): Unit =
    println(Eval.renderTableII(Eval.tableII(JobArgs.load(args)("CP"))))
}
