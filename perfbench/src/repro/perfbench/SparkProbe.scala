// The listener bus is drained through its package-private handle, so the
// counts read after a pass include every event the pass produced.
package org.apache.spark {
  object PerfbenchListenerBus {
    def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
  }
}

package repro.perfbench {
  import org.apache.spark.PerfbenchListenerBus
  import org.apache.spark.scheduler._
  import org.apache.spark.sql.SparkSession

  /** Job and task counters of the block engine, registered for traced passes. */
  final class BlockListener extends SparkListener {
    private val jobStart = scala.collection.mutable.HashMap.empty[Int, Long]
    @volatile var jobs = 0
    @volatile var jobMs = 0L
    @volatile var taskRunMs = 0L
    @volatile var taskDeserMs = 0L
    @volatile var resultBytes = 0L

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobStart(e.jobId) = e.time }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobs += 1
      jobStart.remove(e.jobId).foreach(t0 => jobMs += e.time - t0)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) {
        taskRunMs += m.executorRunTime
        taskDeserMs += m.executorDeserializeTime
        resultBytes += m.resultSize
      }
    }
  }

  object SparkProbe {
    def attach(spark: SparkSession): BlockListener = {
      val l = new BlockListener
      spark.sparkContext.addSparkListener(l)
      l
    }

    /** Wait for every queued event, then unregister the listener. */
    def detach(spark: SparkSession, l: BlockListener): Unit = {
      PerfbenchListenerBus.drain(spark.sparkContext)
      spark.sparkContext.removeSparkListener(l)
    }
  }
}
