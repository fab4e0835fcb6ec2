package repro.cache

import repro.graph.DiGraph
import repro.order.VertexOrder

/** Set-associative LRU cache configuration.
  *
  * Defaults model a 256 KiB L2 slice: 64-byte lines, 512 sets × 8 ways,
  * 8-byte vertex states (8 states per line).
  */
final case class CacheConfig(
    lineBytes: Int = 64,
    stateBytes: Int = 8,
    numSets: Int = 512,
    ways: Int = 8,
) {
  require(lineBytes % stateBytes == 0, "lineBytes must be a multiple of stateBytes")
  val statesPerLine: Int = lineBytes / stateBytes
}

/** LRU cache-line simulator over the vertex-state access trace of one
  * iterative sweep.
  *
  * The paper measures hardware cache misses (Fig 9/10); this substrate has
  * no perf counters, so we simulate: reordering relocates vertex states in
  * memory (state of v lives at address p(v)·stateBytes), and a sweep in
  * processing order touches, for each vertex, its own state then each
  * in-neighbor's state — exactly the PageRank access pattern the paper
  * profiles. Orders that place neighbors on nearby subscripts hit more.
  */
object CacheSim {

  final case class SweepStats(accesses: Long, misses: Long)

  /** Simulate one full in-neighbor sweep in processing order. */
  def sweep(g: DiGraph, o: VertexOrder, cfg: CacheConfig = CacheConfig()): SweepStats = {
    require(o.n == g.numVertices, s"order size ${o.n} != |V|=${g.numVertices}")
    // tags(set)(way) = line address, age(set)(way) = last-touch tick
    val tags = Array.fill(cfg.numSets, cfg.ways)(-1L)
    val age  = Array.fill(cfg.numSets, cfg.ways)(0L)
    var tick = 0L
    var accesses = 0L
    var misses = 0L

    def touch(stateIdx: Long): Unit = {
      tick += 1; accesses += 1
      val line = stateIdx / cfg.statesPerLine
      val set  = (line % cfg.numSets).toInt
      val ts   = tags(set); val as = age(set)
      var hit  = -1
      var lru  = 0
      var w    = 0
      while (w < cfg.ways) {
        if (ts(w) == line) hit = w
        if (as(w) < as(lru)) lru = w
        w += 1
      }
      if (hit >= 0) as(hit) = tick
      else { misses += 1; ts(lru) = line; as(lru) = tick }
    }

    val touchState = (u: Int) => touch(o.pos(u).toLong)
    var p = 0
    while (p < o.n) {
      val v = o.order(p)
      touch(p.toLong) // own state at its ordinal position
      g.foreachIn(v)(touchState)
      p += 1
    }
    SweepStats(accesses, misses)
  }
}
