package repro.jobs

import repro.eval.Eval

/** spark-submit entrypoint reproducing Table I (dataset statistics).
  * Usage: spark-submit --class repro.jobs.TableIJob <jar> [small]
  */
object TableIJob {
  def main(args: Array[String]): Unit =
    println(Eval.renderTableI(Eval.tableI(JobArgs.load(args))))
}
