"""The benchmark's workloads: generated inputs, JSONiq queries, and
reference answers computed with stdlib ``json`` only, never the engine.

Inputs come from ``repro.synth_data`` in fixed-size chunks whose seeds
derive from the run's ``--seed``, so one seed gives byte-identical files
on any machine. Each chunk is generated in a process of its own,
written, read back with ``json.loads`` and reduced to a partial
reference; the partials merge into the reference for the whole file.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

CHUNK = 50_000


def canon(item) -> str:
    """Canonical JSON of one item, so the comparison tells int from
    float and ``false`` from ``0`` (Python's ``==`` would not)."""
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


# -- reddit-filter: the paper's highly filtering query (§6.5) ----------------

def _reddit_filter_query(path: str) -> str:
    from repro.workloads import queries

    return queries.jsoniq_reddit_filter(path)


def _jsoniq_number(v) -> float:
    # number() of the engine's spec: booleans, numbers and numeric
    # strings cast to double; any other string is NaN.
    try:
        return float(v)
    except ValueError:
        return float("nan")


def _reddit_filter_ref(objs) -> int:
    return sum(
        1 for o in objs
        if o.get("distinguished") == "moderator"
        and _jsoniq_number(o["score"]) >= 100
    )


def _check_count(result, ref) -> bool:
    return result == [ref]


# -- reddit-project: the same scan, encode-heavy, ~25% collected -----------

def _reddit_project_query(path: str) -> str:
    return (
        f'for $c in json-file("{path}") '
        f"let $s := number($c.score) "
        f"where $c.year ge 2014 "
        f'return {{"author": $c.author, "sub": $c.subreddit, '
        f'"score": $s, "edited": $c.edited}}'
    )


def _reddit_project_ref(objs) -> list[str]:
    return [
        canon({"author": o["author"], "sub": o["subreddit"],
               "score": _jsoniq_number(o["score"]), "edited": o["edited"]})
        for o in objs if o["year"] >= 2014
    ]


def _check_in_order(result, ref) -> bool:
    # A FLWOR without order by keeps the order of its json-file() input.
    return [canon(x) for x in result] == ref


# -- confusion-sort: Fig. 4 sort, first 10 results -------------------------

SORT_CAP = 10


def _confusion_sort_query(path: str) -> str:
    from repro.workloads import queries

    return queries.jsoniq_sort(path)


def _confusion_sort_ref(objs) -> list[str]:
    rows = [o for o in objs if o["guess"] == o["target"]]
    rows.sort(key=lambda o: o["date"], reverse=True)
    rows.sort(key=lambda o: o["country"], reverse=True)
    rows.sort(key=lambda o: o["target"])
    # Rows tied on all three keys project to identical objects, so the
    # first SORT_CAP results are unique even though ties are unordered.
    return [canon({k: o[k] for k in ("guess", "target", "country", "date")})
            for o in rows[:SORT_CAP]]


def _merge_sorted_prefix(parts: list[list[str]]) -> list[str]:
    objs = [json.loads(s) for p in parts for s in p]
    return _confusion_sort_ref(objs)


# -- readme-small: README example over 2,000 objects ------------------------

def _readme_query(path: str) -> str:
    return (
        f'for $i in json-file("{path}") '
        f"where $i.guess eq $i.target "
        f"group by $t := $i.target "
        f"order by count($i) descending "
        f'return {{"target": $t, "n": count($i)}}'
    )


def _readme_ref(objs) -> Counter:
    return Counter(o["target"] for o in objs if o["guess"] == o["target"])


def _check_groups(result, ref: Counter) -> bool:
    # Groups tied on n may come in any order: compare as a multiset and
    # check that n never increases.
    ns = [r["n"] for r in result]
    got = Counter({r["target"]: r["n"] for r in result})
    return (len(result) == len(ref) and got == ref
            and all(a >= b for a, b in zip(ns, ns[1:])))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "reddit" or "confusion": which generator makes the input
    n: int
    query: Callable[[str], str]
    cap: int | None
    reference: Callable  # chunk objects -> partial reference
    merge: Callable  # list of partials -> reference
    check: Callable  # (engine result, reference) -> bool
    why: str


WORKLOADS = {
    w.name: w for w in [
        Workload("reddit-filter", "reddit", 400_000, _reddit_filter_query, None,
                 _reddit_filter_ref, sum, _check_count,
                 "source bootstrap plus one where UDF per row over messy data; "
                 "count pushed to the JVM, no shuffle, no return clause"),
        Workload("reddit-project", "reddit", 400_000, _reddit_project_query, None,
                 _reddit_project_ref, lambda ps: [s for p in ps for s in p],
                 _check_in_order,
                 "same scan as reddit-filter plus let encoding and a return "
                 "flatMap that ships ~25% of the objects to the driver"),
        Workload("confusion-sort", "confusion", 200_000, _confusion_sort_query, SORT_CAP,
                 _confusion_sort_ref, _merge_sorted_prefix, _check_in_order,
                 "per-row decode and evaluation: four UDFs decode $i, plus the "
                 "order-by type-discovery pass, a persist and a range sort"),
        Workload("readme-small", "confusion", 2_000, _readme_query, None,
                 _readme_ref, lambda ps: sum(map(Counter, ps), Counter()), _check_groups,
                 "interactive case: negligible per-row work, latency set by "
                 "compile time and Spark jobs, stages and tasks"),
    ]
}


def write_chunk(name: str, path: str, n: int, seed: int):
    """Write one chunk, read it back with stdlib json, and return its
    partial reference."""
    from repro import synth_data

    w = WORKLOADS[name]
    if w.kind == "reddit":
        objs = synth_data.reddit_pandas(n, seed=seed)
    else:
        objs = synth_data.confusion_pandas(n, seed=seed).to_dict(orient="records")
    synth_data.write_jsonlines(path, objs)
    with open(path, encoding="utf-8") as f:
        objs = [json.loads(line) for line in f]
    return w.reference(objs)


@dataclass
class Inputs:
    path: str
    warmup_path: str
    objects: int
    bytes: int
    warmup_objects: int
    reference: object
    warmup_reference: object


def make_inputs(w: Workload, seed: int, data_dir: str, workers: int) -> Inputs:
    """Generate the workload's input and warm-up files under
    ``data_dir`` and compute their reference answers. The warm-up file
    is one more chunk from the same generator. Each chunk is made by
    its own process, at most ``workers`` at a time; every process has
    ended when this returns."""
    os.makedirs(data_dir, exist_ok=True)
    sizes = [min(CHUNK, w.n - i) for i in range(0, w.n, CHUNK)]
    parts = [(os.path.join(data_dir, f"part{i:03d}.json"), k, seed * 1000 + i)
             for i, k in enumerate(sizes)]
    warm = (os.path.join(data_dir, "warmup.json"), sizes[0], seed * 1000 + 999)

    def job(spec):
        path, n, chunk_seed = spec
        subprocess.run([sys.executable, __file__, w.name, path, str(n), str(chunk_seed)],
                       check=True)
        with open(path + ".ref", encoding="utf-8") as f:
            return json.load(f)

    with ThreadPoolExecutor(max(1, workers)) as pool:
        partials = list(pool.map(job, parts + [warm]))
    path = os.path.join(data_dir, "input.json")
    with open(path, "wb") as out:
        for part, _, _ in parts:
            with open(part, "rb") as f:
                shutil.copyfileobj(f, out)
            os.remove(part)
    return Inputs(path, warm[0], w.n, os.path.getsize(path), warm[1],
                  w.merge(partials[:-1]), w.merge(partials[-1:]))


if __name__ == "__main__":
    # One chunk: workloads.py <workload> <path> <objects> <seed>
    name, path, n, seed = sys.argv[1:]
    ref = write_chunk(name, path, int(n), int(seed))
    with open(path + ".ref", "w", encoding="utf-8") as f:
        json.dump(ref, f)
