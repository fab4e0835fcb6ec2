#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Builds the program and the benchmark from source on first use (sbt, output in
`.bench_build/`), then runs one workload in a fresh JVM. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`).
`--write-manifest` regenerates `BENCHMARK.json` from `spec.py`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import baseline  # noqa: E402
import spec  # noqa: E402

BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"
STAMP = OUT / "build.stamp"
CLASSPATH = BUILD / "sbt-target" / "classpath.txt"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"

BUILD_TIMEOUT_S = 600
RUN_DEADLINE_S = 175
# A fixed young generation keeps the heap layout, and so peak RSS, repeatable
# from run to run; the parallel collector keeps Spark's task threads moving.
JVM_MEMORY = ["-Xmx3g", "-Xmn256m", "-XX:+UseParallelGC"]

# Spark 4 on JDK 17 needs the module opens its launcher scripts add.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    return files + [HERE / "build.sbt", HERE / "project" / "build.properties"]


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile with sbt unless the sources are unchanged since the last build."""
    digest = source_hash()
    if STAMP.exists() and CLASSPATH.exists() and STAMP.read_text() == digest:
        return
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        env["SPARK_HOME"] = str(Path(submit).resolve().parent.parent)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    t0 = time.time()
    print("perfbench: building (sbt compile)", file=sys.stderr, flush=True)
    proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
                          cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not CLASSPATH.exists():
        fail(f"build failed (sbt exit {proc.returncode})")
    OUT.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(digest)
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr, flush=True)


def run_jvm(args, deadline):
    """Run the Scala harness; forward its report lines, return its last line."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + JVM_MEMORY + [f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}"]
           + JVM_OPENS + ["-Djdk.reflect.useDirectMethodHandle=false",
                          "-cp", CLASSPATH.read_text().strip(), "repro.perfbench.Main",
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
           + (["--vertices", str(args.vertices)] if args.vertices else []))
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload did not finish in time")
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    return json.loads(lines[-1])


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def report(args, raw):
    failures = list(raw["failures"])
    values = raw["metrics"]
    if args.trace == 0:
        wanted = spec.END_TO_END
        missing = [m["name"] for m in wanted if not finite(values.get(m["name"]))]
        failures += [f"metric {n} missing" for n in missing]
    else:
        # a layer the workload does not exercise reports 0
        wanted = spec.PER_LAYER
        values = {m["name"]: (values.get(m["name"]) if finite(values.get(m["name"])) else 0.0) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if finite(values.get(m["name"]))}

    print(f"== {args.workload} seed {args.seed}: {'per-layer (traced)' if args.trace else 'end-to-end'} ==")
    for m in wanted:
        v = values.get(m["name"])
        shown = f"{v:.6g}" if finite(v) else "missing"
        print(f"  {m['name']:<40} {shown:>14} {m['unit']:<6} ({m['better']} is better)")
    if args.trace == 0:
        print(f"  {'error_rate':<40} {raw['metrics'].get('error_rate', float('nan')):>14.6g} ratio  "
              f"(lower is better; {raw['failed']} failed of {raw['attempted']} ops attempted)")
    else:
        total = sum(values.get(f"self.{l}_s", 0.0) for l in spec.LAYERS)
        print("  self-time share of the traced pass (with analysis):")
        for l in spec.LAYERS:
            s = values.get(f"self.{l}_s", 0.0)
            print(f"    {l:<10} {s:9.3f} s  {100 * s / total if total else 0:5.1f}%")
        rows = baseline.check(args.workload, args.seed, values, int(raw["metrics"]["input.vertices"]))
        print("  ROADMAP baseline cross-check:")
        for r in rows:
            print(f"    [{r['status']}] {r['row']}: {r['detail']}")
        (OUT / f"baseline-{args.workload}-seed{args.seed}.json").write_text(json.dumps(rows, indent=1))
    return {"correct": not failures, "attempted": raw["attempted"],
            "failed": len(failures), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help=", ".join(w["name"] for w in spec.WORKLOADS) + " or iterate-cp-large")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--vertices", type=int, help="override the workload's input size (one-off probes)")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    deadline = time.time() + RUN_DEADLINE_S
    if not PROGRAM_SRC.is_dir():
        fail(f"program sources not found under {PROGRAM_SRC.relative_to(ROOT)}")
    build()
    deadline = max(deadline, time.time() + RUN_DEADLINE_S)  # a first-use build has its own budget
    result = report(args, run_jvm(args, deadline))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
