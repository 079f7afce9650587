"""PBDS benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tpch-disk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-manifest     # rewrite BENCHMARK.json

Run it from the root of a checkout: it imports ``repro`` from ``src/``
and keeps every file it writes under ``.perfbench-work/`` there.

Spark runs as ``local[n]`` with n = min(4, cores), driver memory sized
like the tier-1 test command (half of MemTotal, clamped to 2-8 GiB).
A run sets the workload up five times (``setup_s`` is the median), runs
one untimed warm-up pass, and then:

* ``--trace 0``: runs the amount of work that takes about ``--seconds``
  (``Workload.size_for``), operations back to back, and prints the
  end-to-end metrics;
* ``--trace 1``: runs the workload's smaller unit of work traced,
  untraced and traced again, checks that the count metrics of the two
  traced passes agree, and prints the per-layer metrics.

Every answer is compared with plain Q after the timed window. The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give the same figures for people.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5

# (name, unit, better, bound); bound = share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.22),
    ("latency_p50_s", "s", "lower", 0.245),
    ("latency_tail_s", "s", "lower", 0.22),
    ("plain_p50_s", "s", "lower", 0.2),
    ("capture_p50_s", "s", "lower", 0.22),
    ("peak_rss_mb", "MB", "lower", 0.2),
)
PER_LAYER = (
    ("storage.rows_scanned", "count", "lower"),
    ("storage.files_read", "count", "lower"),
    ("storage.scan_frac", "ratio", "lower"),
    ("use.rewrite_s", "s", "lower"),
    ("use.merged_ranges", "count", "lower"),
    ("use.pushed_disjuncts", "count", "lower"),
    ("use.udf_predicates", "count", "lower"),
    ("use.coverage", "ratio", "lower"),
    ("compile.s", "s", "lower"),
    ("compile.calls", "count", "lower"),
    ("spark.plan_s", "s", "lower"),
    ("spark.exec_s", "s", "lower"),
    ("capture.calls", "count", "lower"),
    ("capture.instrument_s", "s", "lower"),
    ("capture.s", "s", "lower"),
    ("capture.exec_s", "s", "lower"),
    ("capture.fragments", "count", "lower"),
    ("selftune.plain", "count", "lower"),
    ("selftune.capture", "count", "lower"),
    ("selftune.use", "count", "higher"),
    ("selftune.store_size", "count", "lower"),
    ("selftune.s", "s", "lower"),
    ("selftune.find_s", "s", "lower"),
    ("selftune.counterfactual_s", "s", "lower"),
    ("reuse.checks", "count", "lower"),
    ("reuse.check_s", "s", "lower"),
    ("reuse.hit_ratio", "ratio", "higher"),
    ("workloads.generate_s", "s", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.cache_s", "s", "lower"),
    ("ranges.partition_s", "s", "lower"),
    ("safety.check_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
# counters that must repeat exactly between two traced passes
DETERMINISTIC = tuple(n for n, unit, _ in PER_LAYER if unit == "count")
RUN_SECONDS = 15
# The workloads BENCHMARK.json lists. sof-stream-disk runs from the same
# command but is left out: three workloads of Spark runs do not fit the
# harness's time budget for 4 + 22 runs per workload.
BENCHMARKED = ("tpch-disk", "crimes-stream-mem")


def _driver_mem() -> str:
    """Half of MemTotal in whole GiB, clamped to 2..8 (as tier-1 does)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def _spark_env(workdir: str) -> int:
    """Environment for the JVM and Python workers; returns the core count."""
    cores = min(4, len(os.sched_getaffinity(0)))
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp  # gettempdir() caches the first value it saw
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # the FragmentId / RangeMembership pandas UDFs unpickle repro.* in
    # Spark's Python workers, which only see PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Parallel GC with fixed generation sizes grows the heap from live
    # data only; G1's adaptive sizing made peak RSS vary by up to 30 %
    # from run to run
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:+UseParallelGC -XX:-UseAdaptiveSizePolicy"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {_driver_mem()} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    return cores


def _spark(cores: int, tmp: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # as in the tests and jobs: keep joins on the shuffle path
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", tmp)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _warm_jvm(spark, workdir: str) -> None:
    """Load the JVM classes set-up uses (Arrow transfer, range-partitioned
    Parquet write, Parquet read) on a tiny frame, so that no repetition
    of the timed set-up pays for them."""
    import pandas as pd
    from repro.physical.storage import read_table, write_clustered

    path = os.path.join(workdir, "warm")
    write_clustered(spark.createDataFrame(pd.DataFrame({"k": range(1000)})), path, "k")
    read_table(spark, path).filter("k > 10").collect()
    spark.createDataFrame(pd.DataFrame({"k": range(1000)})).cache().count()


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/task/{p}/children") as f:
                kids = [int(c) for c in f.read().split()]
        except OSError:
            kids = []
        out.extend(kids)
        todo.extend(kids)
    return out


def peak_rss_mb() -> float:
    """VmHWM of this process plus its JVM child."""
    kb = _vm_hwm_kb(os.getpid())
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/comm") as f:
                if f.read().strip() == "java":
                    kb += _vm_hwm_kb(pid)
        except OSError:
            continue
    return kb / 1024.0


def percentile_tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it; with ten or fewer samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(out, setup_times: list[float], lines: list[str]) -> dict:
    tail, pct, n = percentile_tail(out.answer)
    values = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": len(out.answer) / out.elapsed,
        "latency_p50_s": median(out.answer),
        "latency_tail_s": tail,
        "plain_p50_s": median(out.plain),
        "capture_p50_s": median(out.capture),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines += [
        f"latency_tail_s is p{pct:.1f} of {n} answers",
        f"samples: {len(out.answer)} answers, {len(out.plain)} plain, "
        f"{len(out.capture)} captures in {out.elapsed:.2f} s",
        f"failed_frac = {out.failed}/{out.attempted} = {out.failed / max(1, out.attempted):.4f} 1",
    ]
    return values


def per_layer(tracer, probe, start, end, out, base_elapsed: float, setup_self: dict) -> dict:
    """Per-layer metrics of one traced pass between two marks, each
    (span index, execution index, counters)."""
    (spans0, execs0, counters0), (spans1, execs1, counters1) = start, end
    self_s = tracer.self_times(spans0, spans1)
    calls = tracer.calls(spans0, spans1)
    c = counters1 - counters0
    execs = probe.executions[execs0:execs1]
    qp = [e for e in execs if e.kind == "qp"]
    sketched_rows = sum(p.answer.counters.get("rows", 0) for p in out.pairs if p.sketched and p.answer)
    plain_rows = sum(p.reference.counters.get("rows", 0) for p in out.pairs if p.sketched and p.reference)
    checks = c["reuse.checks"]
    return {
        "storage.rows_scanned": sum(e.counters.get("rows", 0) for e in execs),
        "storage.files_read": sum(e.counters.get("files", 0) for e in execs),
        "storage.scan_frac": sketched_rows / plain_rows if plain_rows else 0.0,
        "use.rewrite_s": self_s.get("use.rewrite", 0.0),
        "use.merged_ranges": c["use.merged_ranges"],
        "use.pushed_disjuncts": sum(e.counters.get("pushed_disjuncts", 0) for e in qp),
        "use.udf_predicates": sum(e.counters.get("udf_nodes", 0) for e in qp),
        "use.coverage": c["use.coverage_sum"] / c["use.sketches"] if c["use.sketches"] else 0.0,
        "compile.s": self_s.get("compile", 0.0),
        "compile.calls": calls["compile"],
        "spark.plan_s": self_s.get("spark.plan", 0.0),
        "spark.exec_s": self_s.get("spark.exec", 0.0),
        "capture.calls": c["capture.calls"],
        "capture.instrument_s": self_s.get("capture.instrument", 0.0),
        "capture.s": self_s.get("capture", 0.0),
        "capture.exec_s": tracer.self_times(spans0, spans1, under="capture").get("spark.exec", 0.0),
        "capture.fragments": c["capture.fragments"],
        "selftune.plain": out.actions["plain"],
        "selftune.capture": out.actions["capture"],
        "selftune.use": out.actions["use"],
        "selftune.store_size": out.store_size,
        "selftune.s": self_s.get("selftune.run", 0.0),
        "selftune.find_s": self_s.get("selftune.find", 0.0),
        "selftune.counterfactual_s": out.counterfactual_s,
        "reuse.checks": checks,
        "reuse.check_s": self_s.get("reuse.check", 0.0),
        "reuse.hit_ratio": c["reuse.hits"] / checks if checks else 0.0,
        "workloads.generate_s": setup_self.get("workloads.generate", 0.0),
        "storage.write_s": setup_self.get("storage.write", 0.0),
        "storage.cache_s": setup_self.get("storage.cache", 0.0),
        "ranges.partition_s": setup_self.get("ranges.partition", 0.0),
        "safety.check_s": setup_self.get("safety.check", 0.0),
        "trace.overhead_frac": out.elapsed / base_elapsed - 1.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, make=None) -> dict:
    """Run one workload in a fresh Spark; returns the result object.
    ``make`` builds the workload (default: the registered one)."""
    from probe import Probe, Tracer
    from workloads import WORKLOADS, Context

    wl = (make or WORKLOADS[workload])()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{wl.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cores = _spark_env(workdir)
    spark = _spark(cores, os.environ["TMPDIR"])
    tracer = Tracer(enabled=trace)
    probe = Probe(tracer)
    probe.install()
    lines: list[str] = []
    try:
        ctx = Context(spark, probe, seed, workdir)
        _warm_jvm(spark, workdir)
        setup_times, setup_selfs = [], []
        for rep in range(SETUP_REPS):
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            state = wl.setup(ctx, rep)
            setup_times.append(time.perf_counter() - t0)
            setup_selfs.append(tracer.self_times(first_span))
        lines.append("setup_s per repetition: " + ", ".join(f"{t:.3f}" for t in setup_times))
        tracer.enabled = False
        t0 = time.perf_counter()
        wl.warmup(ctx, state)
        lines.append(f"warm-up pass: {time.perf_counter() - t0:.3f} s")
        if trace:
            metrics, outs, drift = _traced_passes(wl, ctx, state, setup_selfs, lines)
        else:
            outs, drift = [wl.work(ctx, state, wl.size_for(seconds))], []
            outs[0].verify()
            metrics = end_to_end(outs[0], setup_times, lines)
    finally:
        probe.uninstall()
        _stop_spark(spark)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    units = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    lines += [f"{n} = {v:.6g} {units[n]}" for n, v in metrics.items()]
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and attempted > 0 and not drift,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        },
    }


def _traced_passes(wl, ctx, state, setup_selfs, lines):
    """The workload's unit three times: traced, untraced, traced.

    The first pass meets the unit's plans for the first time, as a timed
    run does, so its layer figures are the ones reported. The overhead
    compares the two later passes, which both replay the same plans; the
    JVM keeps warming across passes, so an overhead below that drift
    reads as a small negative number.
    Returns (metrics, outcomes, names of counters that differ)."""
    tracer, probe = ctx.probe.tracer, ctx.probe
    setup_self = {
        k: statistics.median(s.get(k, 0.0) for s in setup_selfs)
        for k in set().union(*setup_selfs)
    }

    def mark():
        return len(tracer.spans), len(probe.executions), probe.counters.copy()

    outs, marks = [], [mark()]
    for traced in (True, False, True):
        tracer.enabled = traced
        outs.append(wl.work(ctx, state, wl.UNIT))
        marks.append(mark())
    tracer.enabled = False
    first, base, last = outs
    metrics = per_layer(tracer, probe, marks[0], marks[1], first, base.elapsed, setup_self)
    again = per_layer(tracer, probe, marks[2], marks[3], last, base.elapsed, setup_self)
    metrics["trace.overhead_frac"] = again["trace.overhead_frac"]
    for o in outs:
        o.verify()
    drift = [n for n in DETERMINISTIC if metrics[n] != again[n]]
    if drift:
        lines.append("counters differ between the two traced passes: " + ", ".join(
            f"{n} {metrics[n]} vs {again[n]}" for n in drift))
    lines.append(
        f"unit passes: traced {first.elapsed:.3f} s, untraced {base.elapsed:.3f} s, "
        f"traced {last.elapsed:.3f} s"
    )
    lines += _self_time_table(tracer, marks[0][0], marks[1][0])
    return metrics, outs, drift


def _self_time_table(tracer, start: int, end: int) -> list[str]:
    self_s = tracer.self_times(start, end)
    calls = tracer.calls(start, end)
    out = [f"self time by span, first traced pass ({tracer.total(start, end):.3f} s in root spans):"]
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        out.append(f"  {name:<22} {s:9.4f} s  {calls[name]:6d} calls")
    return out


def write_manifest() -> str:
    from workloads import WORKLOADS

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in BENCHMARKED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_manifest:
        print(write_manifest())
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in res["lines"]:
        print(line)
    print(json.dumps(res["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
