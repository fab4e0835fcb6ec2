"""Cross-check of ROADMAP's "Baseline measured at this re-anchor" table.

Each row of that table is compared with the traced run of the workload that
measures it. A time row counts as reproduced when the measurement lies in the
stated range, widened by half on each side (the rows are single warm-JVM
probes); a count row only when it matches exactly, which can only happen on
the CP analogue itself: GraphGen.dataset("CP") is the citation model with
50k vertices and seed 55. Rows run on another input size are not comparable.
"""

CP_SEED = 55
CP_VERTICES = 50000
SLACK = 1.5


def _time(row, workload, key, lo, hi):
    def judge(values, seed):
        v = values.get(key, 0.0)
        ok = lo / SLACK <= v <= hi * SLACK
        stated = f"{lo:g}-{hi:g} s" if lo != hi else f"{lo:g} s"
        return ok, f"{key} = {v:.3f} s, stated {stated}"
    return row, workload, judge


def _count(row, workload, key, expected):
    def judge(values, seed):
        v = values.get(key, 0.0)
        note = "" if seed == CP_SEED else f" (exact only on seed {CP_SEED})"
        return v == expected, f"{key} = {v:g}, stated {expected:g}{note}"
    return row, workload, judge


def _rabbit_one_community(values, seed):
    parts = values.get("partition.rabbit.parts", 0.0)
    share = values.get("partition.rabbit.internal_share", 0.0)
    largest = values.get("partition.rabbit.largest_part", 0.0)
    return parts == 1, (f"{parts:g} parts, largest {largest:g} vertices, internal share {share:.3f}; "
                        f"stated 1 community, internal share 1.00")


def _sync_sssp(values, seed):
    return None, "sync runs only on iterate-cp-large, not on the CP analogue"


ROWS = [
    _time("Gorder on a 40-60k-vertex analogue", "reorder-cp", "order.gorder_s", 2.5, 12.7),
    _time("GoGraph on a 40-60k-vertex analogue", "reorder-cp", "core.gograph.rabbit_s", 0.54, 0.96),
    _time("Rabbit order on a 40-60k-vertex analogue", "reorder-cp", "order.rabbit_s", 0.16, 0.34),
    _time("DegSort < 50 ms", "reorder-cp", "order.degsort_s", 0.0, 0.05),
    _time("HubSort < 50 ms", "reorder-cp", "order.hubsort_s", 0.0, 0.05),
    _time("HubCluster < 50 ms", "reorder-cp", "order.hubcluster_s", 0.0, 0.05),
    _time("GoGraph with Rabbit divide on CP", "reorder-cp", "core.gograph.rabbit_s", 0.59, 0.59),
    _time("GoGraph with Metis divide on CP", "reorder-cp", "core.gograph.metis_s", 0.43, 0.43),
    _time("GoGraph with Fennel divide on CP", "reorder-cp", "core.gograph.fennel_s", 0.64, 0.64),
    _time("GoGraph with Louvain divide on CP", "reorder-cp", "core.gograph.louvain_s", 11.1, 11.1),
    ("RabbitPartition gives 1 community on CP", "reorder-cp", _rabbit_one_community),
    _time("Sequential async PageRank, relabeled, Default order", "reorder-cp",
          "engine.async-default.pagerank_s", 0.010, 0.060),
    _time("Sequential async PageRank, relabeled, GoGraph order", "reorder-cp",
          "engine.async-gograph.pagerank_s", 0.010, 0.060),
    _count("Sequential async PageRank with the GoGraph order takes 41 rounds", "reorder-cp",
           "engine.async-gograph.pagerank.rounds", 41),
    ("SSSP on CP, SeqEngine.sync 115 ms", "reorder-cp", _sync_sssp),
    _count("Block engine SSSP, Default: 19 supersteps", "block-cp", "block.default.sssp.supersteps", 19),
    _count("Block engine SSSP, GoGraph: 16 supersteps", "block-cp", "block.gograph.sssp.supersteps", 16),
    _count("Block engine PageRank, Default: 103 supersteps", "block-cp", "block.default.pagerank.supersteps", 103),
    _count("Block engine PageRank, GoGraph: 80 supersteps", "block-cp", "block.gograph.pagerank.supersteps", 80),
    _time("Block engine SSSP, Default: 2.4 s", "block-cp", "block.default.sssp_s", 2.4, 2.4),
    _time("Block engine SSSP, GoGraph: 1.2 s", "block-cp", "block.gograph.sssp_s", 1.2, 1.2),
    _time("Block engine PageRank, Default: 7.9 s", "block-cp", "block.default.pagerank_s", 7.9, 7.9),
    _time("Block engine PageRank, GoGraph: 5.2 s", "block-cp", "block.gograph.pagerank_s", 5.2, 5.2),
]


def check(workload, seed, values, vertices):
    """Rows measured by `workload`: reproduced, not reproduced, not measured or not comparable."""
    out = []
    for row, wl, judge in ROWS:
        if wl != workload:
            continue
        ok, detail = judge(values, seed)
        if ok is None:
            status = "not measured"
        elif vertices != CP_VERTICES:
            status = "not comparable"
            detail += f" ({vertices} vertices, the row is at {CP_VERTICES})"
        else:
            status = "reproduced" if ok else "not reproduced"
        out.append({"row": row, "status": status, "detail": detail})
    return out
