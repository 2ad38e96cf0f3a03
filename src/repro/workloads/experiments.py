"""Experiment drivers for the five evaluation tables T1–T5
(paper Figures 11–15). Each driver generates (and caches) its dataset,
runs every (system, query, scale) cell end-to-end through the harness
and returns the measurements; ``jobs/table*_*.py`` are thin
spark-submit wrappers and ``benchmarks/bench_t*`` time single cells.

Scales are laptop-sized versions of the paper's (16 M / 320 M / 21.6 B
objects don't fit a 3-hour CI budget); the *shape* claims listed in
DESIGN.md §5 are what EXPERIMENTS.md checks.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

from .. import synth_data
from ..baselines import local_single_thread, pyspark_rdd, spark_native, spark_sql
from ..core import Rumble
from . import queries as Q
from .harness import Measurement, measure

# ---------------------------------------------------------------------------
# dataset caching
# ---------------------------------------------------------------------------

def confusion_file(workdir: str, n: int) -> str:
    path = os.path.join(workdir, f"confusion_{n}.json")
    if not os.path.exists(path):
        synth_data.write_confusion(path, n)
    return path


def reddit_file(workdir: str, n: int) -> str:
    path = os.path.join(workdir, f"reddit_{n}.json")
    if not os.path.exists(path):
        synth_data.write_reddit(path, n)
    return path


# ---------------------------------------------------------------------------
# the four distributed systems of T1/T3 (Fig. 11 / Fig. 13)
# ---------------------------------------------------------------------------

def _rumble_runners(spark: SparkSession, path: str):
    eng = Rumble(spark)
    return {
        "filter": lambda: eng.run_one(Q.jsoniq_filter(path)),
        "group": lambda: eng.run(Q.jsoniq_group(path)),
        "sort": lambda: eng.run(Q.jsoniq_sort(path), cap=10),
    }


def _baseline_runners(mod, spark: SparkSession, path: str):
    return {
        "filter": lambda: mod.filter_count(spark, path),
        "group": lambda: mod.group_counts(spark, path),
        "sort": lambda: mod.sort_top(spark, path),
    }


SYSTEMS = ("rumble", "spark-native", "spark-sql", "pyspark-rdd")
#: Runs per T1 cell; a cell reports their median.
T1_REPEAT = 5


def runners_for(system: str, spark: SparkSession, path: str):
    if system == "rumble":
        return _rumble_runners(spark, path)
    mod = {
        "spark-native": spark_native,
        "spark-sql": spark_sql,
        "pyspark-rdd": pyspark_rdd,
    }[system]
    return _baseline_runners(mod, spark, path)


def warm_up(spark: SparkSession, workdir: str,
            systems: tuple[str, ...] = SYSTEMS) -> None:
    """Run every query of each system once on a tiny file, so that JVM
    code paths (a first shuffle, a first checkpoint) and Python workers
    are warm: the paper measures end-to-end runtimes of warm engines on
    a running cluster, not JVM start-up."""
    path = confusion_file(workdir, 1_000)
    for system in systems:
        for run in runners_for(system, spark, path).values():
            run()


def t1_local_engines(spark: SparkSession, workdir: str,
                     sizes: tuple[int, ...] = (10_000, 50_000, 200_000),
                     queries: tuple[str, ...] = ("filter", "group", "sort"),
                     systems: tuple[str, ...] = SYSTEMS) -> list[Measurement]:
    """T1 (Fig. 11): Rumble vs raw-Spark vs Spark SQL vs PySpark,
    confusion dataset, three queries, sweep over object counts. Each
    cell is the median of :data:`T1_REPEAT` warm runs."""
    out = []
    warm_up(spark, workdir, systems)
    for n in sizes:
        path = confusion_file(workdir, n)
        for system in systems:
            runners = runners_for(system, spark, path)
            for q in queries:
                out.append(measure(system, q, n, runners[q], repeat=T1_REPEAT))
    return out


def t2_jsoniq_engines(spark: SparkSession, workdir: str,
                      sizes: tuple[int, ...] = (10_000, 50_000, 200_000),
                      budget_s: float = 60.0,
                      queries: tuple[str, ...] = ("filter", "group", "sort"),
                      zorba_item_cap: int | None = 1_500_000,
                      xidel_item_cap: int | None = 600_000,
                      ) -> list[Measurement]:
    """T2 (Fig. 12): Rumble vs the single-threaded JSONiq engines, with
    the scaled version of the paper's 600 s cap; DNF rows mirror the
    capped bars.

    The item caps stand in for the paper's 16 GB memory limit, scaled to
    our dataset sizes (Zorba died on group/sort beyond 4 M of the 16 M
    objects; Xidel — which materializes the input — died on the filter
    at 8 M and on group/sort earlier)."""
    out = []
    jsoniq = {
        "filter": Q.jsoniq_filter,
        "group": Q.jsoniq_group,
        "sort": Q.jsoniq_sort,
    }
    warm_up(spark, workdir, systems=("rumble",))
    for n in sizes:
        path = confusion_file(workdir, n)
        for q in queries:
            query = jsoniq[q](path)
            cap = 10 if q == "sort" else None
            out.append(measure("rumble", q, n,
                               lambda: Rumble(spark).run(query, cap)))
            out.append(measure("zorba-like", q, n,
                               lambda: local_single_thread.zorba_like(
                                   query, budget_s=budget_s, cap=cap,
                                   item_cap=zorba_item_cap)))
            out.append(measure("xidel-like", q, n,
                               lambda: local_single_thread.xidel_like(
                                   query, budget_s=budget_s, cap=cap,
                                   item_cap=xidel_item_cap)))
    return out


def t3_cluster(spark: SparkSession, workdir: str,
               base_n: int = 50_000, factor: int = 20,
               queries: tuple[str, ...] = ("filter", "group", "sort"),
               systems: tuple[str, ...] = SYSTEMS) -> list[Measurement]:
    """T3 (Fig. 13): the 'cluster' run — the paper replicates the
    confusion dataset 20× (320 M objects on 9 nodes); we replicate a
    base file 20× via comma paths on all 16 local cores."""
    base = confusion_file(workdir, base_n)
    path = synth_data.replicated_path(base, factor)
    n_total = base_n * factor
    out = []
    warm_up(spark, workdir, systems)
    for system in systems:
        runners = runners_for(system, spark, path)
        for q in queries:
            out.append(measure(system, q, n_total, runners[q]))
    return out


def t4_speedup(spark: SparkSession, workdir: str,
               n: int = 400_000,
               partitions: tuple[int, ...] = (1, 2, 4, 8, 16),
               ) -> list[Measurement]:
    """T4 (Fig. 14): runtime and aggregated core-time of the highly
    filtering Reddit query vs degree of parallelism. The paper sweeps
    1–32 executors; locally the same lever is the partition count of
    the input RDD (at most p concurrent tasks run with p partitions)."""
    path = reddit_file(workdir, n)
    out = []
    for p in partitions:
        query = Q.jsoniq_reddit_filter(path, partitions=p)
        eng = Rumble(spark)
        # Warm-up once so JVM/worker startup is not attributed to p=first.
        if p == partitions[0]:
            eng.run_one(query)
        out.append(
            measure("rumble", f"reddit-filter/p={p}", p,
                    lambda: eng.run_one(query), with_cpu=True)
        )
    return out


def t5_scaling(spark: SparkSession, workdir: str,
               base_n: int = 100_000,
               factors: tuple[int, ...] = (1, 2, 4, 8, 16),
               ) -> list[Measurement]:
    """T5 (Fig. 15): runtime of the filter query against dataset size
    (the paper replicates Reddit up to 400×/12 TB; we sweep comma-path
    replication factors and check linearity)."""
    base = reddit_file(workdir, base_n)
    out = []
    eng = Rumble(spark)
    eng.run_one(Q.jsoniq_reddit_filter(base))  # warm-up
    for f in factors:
        path = synth_data.replicated_path(base, f)
        query = Q.jsoniq_reddit_filter(path)
        out.append(
            measure("rumble", "reddit-filter", base_n * f,
                    lambda: eng.run_one(query))
        )
    return out


def linear_fit_r2(xs: list[float], ys: list[float]) -> float:
    """R² of the least-squares line through (xs, ys) — T5's linearity
    check (Fig. 15: "the curve is very linear")."""
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
