"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

`BENCHMARK.json` at the repository root is generated from this module with
`python3 perfbench/run.py --write-manifest`; keep the two in step.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# iterate-cp-large (Fig 8 on 270k vertices) also runs with run.py but is not
# listed: its memory-bound sweeps varied up to twofold between runs on a
# shared machine, more than any bound allows.
WORKLOADS = [
    {"name": "reorder-cp",
     "why": "Table II + Fig 13 (+ Fig 8's sync baseline) on a 20k-vertex CP analogue: order, partition "
            "and core (Louvain conquer) do most of the work; one fixed op order, fresh JVM per run"},
    {"name": "block-cp",
     "why": "Spark block-async engine, 8 blocks on local[4], Default and GoGraph x PageRank and SSSP "
            "on 50k vertices: per-superstep Spark cost dominates; Spark warm-up is set-up"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "preprocess_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iterate_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds", "unit": "count", "better": "lower", "bound": 0.1},
    {"name": "m_ratio", "unit": "ratio", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]

ALGOS = ["pagerank", "php", "sssp", "bfs"]
ORDERS = ["default", "hubcluster", "degsort", "hubsort", "gorder", "rabbit", "gograph"]
PARTITIONERS = ["rabbit", "metis", "louvain", "fennel"]
MODES = ["sync", "async-default", "async-gograph"]
LAYERS = ["bench", "graph", "order", "partition", "core", "engine", "cache", "verify"]


def _per_layer():
    m = [("graph.build_s", "s"), ("graph.relabel_s", "s"), ("jvm.alloc_gb", "GB"), ("jvm.gc_s", "s")]
    m += [(f"order.{o}_s", "s") for o in ["gorder", "rabbit", "degsort", "hubsort", "hubcluster"]]
    m += [("order.metric_s", "s")]
    m += [(f"order.{o}.m_ratio", "ratio") for o in ORDERS]
    m += [(f"order.{o}.rounds", "count") for o in ORDERS]
    for p in PARTITIONERS:
        m += [(f"partition.{p}_s", "s"), (f"partition.{p}.parts", "count"),
              (f"partition.{p}.largest_part", "count"), (f"partition.{p}.internal_share", "ratio")]
    for p in PARTITIONERS:
        m += [(f"core.gograph.{p}_s", "s"), (f"core.gograph.{p}.rest_s", "s"),
              (f"core.gograph.{p}.m_ratio", "ratio")]
    for mode in MODES:
        for a in ALGOS:
            m += [(f"engine.{mode}.{a}_s", "s"), (f"engine.{mode}.{a}.rounds", "count")]
    m += [("engine.edge_visits", "count")]
    m += [(f"engine.{mode}.ns_per_edge", "ns") for mode in MODES]
    m += [("engine.bytes_per_edge", "B")]
    for o in ["default", "gograph"]:
        m += [(f"cache.{o}.miss_rate", "ratio"), (f"cache.{o}.misses", "count")]
    m += [("block.build_s", "s")]
    for o in ["default", "gograph"]:
        for a in ["pagerank", "sssp"]:
            m += [(f"block.{o}.{a}.supersteps", "count"), (f"block.{o}.{a}_s", "s")]
        m += [(f"block.{o}.in_block_positive_share", "ratio")]
    m += [("block.superstep_ms", "ms"), ("block.jobs", "count"), ("block.task_s", "s"),
          ("block.task_deser_s", "s"), ("block.result_bytes", "B"), ("block.driver_s", "s"),
          ("block.broadcast_bytes", "B")]
    m += [(f"self.{layer}_s", "s") for layer in LAYERS]
    m += [("trace.overhead_s", "s"), ("trace.traced_total_s", "s"), ("trace.untraced_total_s", "s"),
          ("trace.spans", "count")]
    # direction of each per-layer metric: counts of work and times are lower-better;
    # quality ratios (M/|E|, in-block share, internal share) are higher-better
    higher = ("m_ratio", "internal_share", "in_block_positive_share")
    return [{"name": n, "unit": u, "better": "higher" if n.endswith(higher) else "lower"} for n, u in m]


PER_LAYER = _per_layer()


def manifest():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
