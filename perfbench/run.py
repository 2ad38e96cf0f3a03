"""Engine benchmark: JSONiq workloads through the public Rumble API.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload reddit-project --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2

One client runs a closed loop: the next query starts when the previous
one returns. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md in this directory). The last line of
standard output is one JSON object; the run record, with every sample
and the spans, is written under ``.bench_work/records/``. The exit code
is non-zero when any query failed or returned a wrong result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import layers
from workloads import WORKLOADS, make_inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Settings the benchmark records and does not tune.
SHUFFLE_PARTITIONS = "64"
#: Warm-up queries before any timing. The first one is cold; after it
#: alone, the first timed query still ran 5-15% slower than the next.
WARMUP_QUERIES = 2
#: Input lines the UDF kernels are timed on, and how many times.
KERNEL_ROWS = 2_000
KERNEL_REPEATS = 3

END_TO_END_UNITS = {"query_s.p50": "s", "cpu_s.p50": "s", "py_peak_rss_mb": "MB", "setup_s": "s"}


def tree_pids(root: int) -> set[int]:
    """``root`` and all of its live descendants, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out, todo = {root}, [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def python_peak_rss_mb() -> float:
    """Highest VmHWM among this process and its Python descendants (the
    Spark Python workers); the JVM is not counted."""
    peak = 0
    for pid in tree_pids(os.getpid()):
        try:
            with open(f"/proc/{pid}/comm") as f:
                if not f.read().startswith("python"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024


def scheduler_counts(sc, group: str) -> dict:
    """Jobs, stages that ran, and tasks launched under a job group."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = failed = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for sid in info.stageIds if info else ():
            s = st.getStageInfo(sid)
            if s and s.numCompletedTasks + s.numFailedTasks:
                stages += 1
                tasks += s.numCompletedTasks + s.numFailedTasks
                failed += s.numFailedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}


def persisted_rdds(sc) -> int:
    return len(sc._jsc.getPersistentRDDs())


def start_session(work: Path):
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{len(os.sched_getaffinity(0))}]")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the py4j gateway and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


class Run:
    """One benchmark run of one workload: its queries, samples and
    failures."""

    def __init__(self, w, inputs):
        self.w = w
        self.inputs = inputs
        self.samples: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0

    def checked(self, result, reference, error=None) -> bool:
        self.attempted += 1
        ok = error is None and self.w.check(result, reference)
        if not ok:
            self.failed += 1
            self.errors.append(error or "result differs from the reference")
        return ok

    def query(self, engine, path: str):
        """The workload's query over ``path``: (result, None), or
        (None, error text) when it raised."""
        try:
            return engine.run(self.w.query(path), cap=self.w.cap), None
        except Exception as exc:  # counted as a failed query, the run goes on
            return None, f"{type(exc).__name__}: {exc}"

    def setup(self, work: Path) -> tuple[object, float]:
        """Start the session and run the warm-up queries: the workload's
        own query over the warm-up file. Returns the session and the
        seconds that took, which include launching the JVM."""
        from repro.core import Rumble

        t0 = time.perf_counter()
        spark = start_session(work)
        engine = Rumble(spark)
        warm = [self.query(engine, self.inputs.warmup_path) for _ in range(WARMUP_QUERIES)]
        elapsed = time.perf_counter() - t0
        for result, error in warm:
            self.checked(result, self.inputs.warmup_reference, error)
        return spark, elapsed

    def timed_query(self, engine, qid: str) -> dict:
        from repro.workloads.harness import process_tree_cpu_seconds

        sc = engine.spark.sparkContext
        sc.setJobGroup(qid, qid)
        before = persisted_rdds(sc)
        cpu0 = process_tree_cpu_seconds()
        t0 = time.perf_counter()
        result, error = self.query(engine, self.inputs.path)
        wall = time.perf_counter() - t0
        cpu = process_tree_cpu_seconds() - cpu0
        ok = self.checked(result, self.inputs.reference, error)
        self.rss_mb = max(self.rss_mb, python_peak_rss_mb())
        after = persisted_rdds(sc)
        sample = {"query": qid, "wall_s": wall, "cpu_s": cpu, "ok": ok,
                  **scheduler_counts(sc, qid),
                  "persisted_rdds": after, "persisted_rdds_left": after - before}
        self.samples.append(sample)
        return sample

    def closed_loop(self, engine, seconds: float, prefix: str) -> list[dict]:
        """Queries back to back for ``seconds``: the next one starts only
        if a query as long as the median so far still ends in time, so
        a run does not overshoot by a whole query."""
        out = []
        end = time.perf_counter() + seconds
        while not out or time.perf_counter() + median(s["wall_s"] for s in out) <= end:
            out.append(self.timed_query(engine, f"{prefix}{len(out) + 1}"))
        return out


def sample_lines(path: str, seed: int, k: int) -> list[str]:
    import random

    with open(path, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    picked = sorted(random.Random(seed).sample(range(len(lines)), min(k, len(lines))))
    return [lines[i] for i in picked]


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    # Only this directory's own repository; a checkout without .git
    # must not report the commit of a repository around it.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(spark, nproc: int) -> dict:
    import pyspark

    conf = spark.conf
    return {
        "nproc": nproc,
        "master": spark.sparkContext.master,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "aqe_coalesce_partitions": conf.get("spark.sql.adaptive.coalescePartitions.enabled"),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "jdk": spark.sparkContext._jvm.System.getProperty("java.version"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    w = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = WORK / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    # Keep every file Python, Spark and the JVMs write inside the
    # checkout, whatever the environment says.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"
    (work / "tmp").mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    inputs = make_inputs(w, args.seed, str(work / "data"), nproc)
    record: dict = {"workload": w.name, "why": w.why, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "inputs": {"objects": inputs.objects, "bytes": inputs.bytes,
                               "warmup_objects": inputs.warmup_objects,
                               "generate_s": time.perf_counter() - t0}}

    from repro.core import Rumble

    run = Run(w, inputs)
    spark = None
    try:
        spark, setup_s = run.setup(work)
        record["environment"] = environment(spark, nproc)
        engine = Rumble(spark)
        if args.trace:
            metrics, counts = traced_run(run, engine, args.seconds, args.seed, record)
        else:
            metrics, counts = end_to_end(run, engine, args.seconds, setup_s)
    finally:
        if spark is not None:
            spark.stop()
        stop_jvm()
        shutil.rmtree(work, ignore_errors=True)

    units = layers.UNITS if args.trace else END_TO_END_UNITS
    reported = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record.update({
        "samples": run.samples, "attempted": run.attempted, "failed": run.failed,
        "failed_ratio": run.failed / run.attempted, "errors": run.errors,
        "metrics": reported, "sample_counts": counts,
    })
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    out = records / f"{w.name}-s{args.seed}-t{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps(record, indent=1))

    for k, m in reported.items():
        print(f"{w.name} {k} = {m['value']:.6g} {m['unit']} (n={counts[k]})")
    print(f"{w.name} failed_ratio = {run.failed}/{run.attempted}")
    print(f"{w.name} record: {out.relative_to(ROOT)}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": reported}))
    return 0 if correct else 1


def end_to_end(run: Run, engine, seconds: float, setup_s: float):
    loop = run.closed_loop(engine, seconds, "q")
    metrics = {
        "query_s.p50": median(s["wall_s"] for s in loop),
        "cpu_s.p50": median(s["cpu_s"] for s in loop),
        "py_peak_rss_mb": run.rss_mb,
        "setup_s": setup_s,
    }
    counts = {"query_s.p50": len(loop), "cpu_s.p50": len(loop),
              "py_peak_rss_mb": len(loop), "setup_s": 1}
    return metrics, counts


def traced_run(run: Run, engine, seconds: float, seed: int, record: dict):
    """Untraced queries for half of ``seconds``, for the scheduler counts
    and the overhead base, then one traced query, the UDF kernels and
    the plan counts."""
    untraced = run.closed_loop(engine, seconds / 2, "q")
    tracer = layers.Tracer()
    result, metrics, final_df = layers.traced_query(
        tracer, "t1", run.w.query(run.inputs.path), run.w.cap, engine.config)
    run.checked(result, run.inputs.reference)
    counts = dict.fromkeys(metrics, 1)
    metrics["trace.overhead_s"] = metrics.pop("query_s") - median(s["wall_s"] for s in untraced)
    counts["trace.overhead_s"] = counts.pop("query_s")

    flwor = layers.flwor_of(engine.compile(run.w.query(run.inputs.path)))
    lines = sample_lines(run.inputs.path, seed, KERNEL_ROWS)
    kernels = layers.summarize(
        [layers.udf_kernels(flwor, lines, engine.config) for _ in range(KERNEL_REPEATS)])
    plan = layers.plan_counts(final_df)
    sched = {f"spark.{k}": median(s[k] for s in untraced)
             for k in ("jobs", "stages", "tasks", "failed_tasks")}
    sched["spark.persisted_rdds"] = median(s["persisted_rdds_left"] for s in untraced)
    for part, n in ((kernels, len(lines)), (plan, 1), (sched, len(untraced))):
        metrics.update(part)
        counts.update(dict.fromkeys(part, n))
    record["spans"] = tracer.export()
    return metrics, counts


def run_all(args) -> int:
    """Every workload in turn, each in its own process. The last line
    sums the runs and names each metric ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            total["correct"] = False
            continue
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "core").is_dir():
        print(f"perfbench: no engine sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
