"""The traced run: spans around calls into each engine layer, the UDF
kernel split, and counts read from the executed plan.

No engine file is instrumented. A traced query repeats the engine's
pipeline step by step through public functions (``jsoniq.parse``,
``jsoniq.check``, ``translator.translate``, ``start_df``, each clause's
``apply_df``, ``get_rdd``) and forces every tuple-stream prefix with
Spark's ``noop`` writer, which, unlike ``count()``, does not prune
unused UDF columns. Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import contextlib
import io
import re
import time
from statistics import median

#: Clause kinds reported as per-layer metrics.
CLAUSE_KINDS = ("where", "let", "groupby", "orderby")

#: Every per-layer metric and its unit.
UNITS = {
    "jsoniq.parse_s": "s", "jsoniq.check_s": "s", "translator.translate_s": "s",
    "source.bootstrap_s": "s", "source.rows": "count",
    **{f"clause.{k}.{f}": u for k in CLAUSE_KINDS
       for f, u in (("build_s", "s"), ("self_s", "s"), ("rows_out", "count"))},
    "emit.return_s": "s", "emit.items": "count",
    "udf.decode_us_per_row": "us", "udf.eval_us_per_row": "us", "udf.encode_us_per_row": "us",
    "plan.python_udfs": "count", "plan.udf_input_cols": "count",
    "spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count",
    "spark.failed_tasks": "count", "spark.persisted_rdds": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans: name, start, end, parent span and query id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, query: str):
        rec = {"id": len(self.spans), "name": name, "query": query,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def export(self) -> list[dict]:
        """Spans with duration and self time (duration minus the time
        its child spans cover; children never overlap here)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [{**s, "dur_s": s["end"] - s["start"],
                 "self_s": s["end"] - s["start"] - child_time.get(s["id"], 0.0)}
                for s in self.spans]


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _kind(clause) -> str:
    return type(clause).__name__.removesuffix("ClauseIterator").lower()


def force(df) -> int:
    """Run the whole plan of ``df`` and return its row count, observed
    on the way instead of by a separate ``count()``."""
    from pyspark.sql import Observation, functions as F

    obs = Observation()
    df.observe(obs, F.count(F.lit(1)).alias("rows")).write.format("noop").mode("overwrite").save()
    return obs.get["rows"]


def flwor_of(root):
    """The FLWOR iterator a workload query is built around: the root
    itself, or the argument of a root ``count()``."""
    from repro.core.flwor.flwor_iterator import FLWORIterator

    return root if isinstance(root, FLWORIterator) else root.children[0]


def traced_query(tracer: Tracer, qid: str, text: str, cap, config):
    """One query, layer by layer. Returns (result, metrics, final frame)."""
    from repro.core.dynamic_context import DynamicContext
    from repro.core.translator import translate
    from repro.jsoniq import check, parse

    m = {f"clause.{k}.{f}": 0.0 for k in CLAUSE_KINDS for f in ("build_s", "self_s")}
    m.update({f"clause.{k}.rows_out": 0 for k in CLAUSE_KINDS})
    with tracer.span("query", qid) as whole:
        with tracer.span("jsoniq.parse", qid) as s:
            tree = parse(text)
        m["jsoniq.parse_s"] = _dur(s)
        with tracer.span("jsoniq.check", qid) as s:
            check(tree)
        m["jsoniq.check_s"] = _dur(s)
        with tracer.span("translator.translate", qid) as s:
            root = translate(tree, optimize=config.enable_optimizations)
        m["translator.translate_s"] = _dur(s)

        flwor = flwor_of(root)
        ctx = DynamicContext(config=config)
        with tracer.span("source.bootstrap", qid) as s:
            tframe = flwor.clauses[0].start_df(ctx)
            m["source.rows"] = force(tframe.df)
        m["source.bootstrap_s"] = forced = _dur(s)
        built = 0.0
        for clause in flwor.clauses[1:]:
            kind = _kind(clause)
            with tracer.span(f"clause.{kind}.build", qid) as s:
                tframe = clause.apply_df(tframe, ctx)
            with tracer.span(f"clause.{kind}.force", qid) as f:
                rows = force(tframe.df)
            built += _dur(s)
            if kind in CLAUSE_KINDS:
                m[f"clause.{kind}.build_s"] += _dur(s)
                m[f"clause.{kind}.self_s"] += _dur(f) - forced
                m[f"clause.{kind}.rows_out"] = rows
            forced = _dur(f)

        # Execution as Rumble.run does it, after compilation. get_rdd
        # builds the clause frames again (order-by runs its discovery
        # pass again); the action then forces the final prefix, already
        # measured, and runs the return clause.
        with tracer.span("emit", qid):
            if root.supports_rdd(ctx):
                with tracer.span("emit.get_rdd", qid):
                    rdd = root.get_rdd(ctx)
                with tracer.span("emit.collect", qid) as s:
                    result = rdd.take(cap) if cap is not None else rdd.collect()
                action = _dur(s)
            else:
                # A count() root builds and counts in one call; its
                # builds are plan-only, so the first build times stand in.
                with tracer.span("emit.materialize", qid) as s:
                    result = root.materialize(ctx)
                    result = result[:cap] if cap is not None else result
                action = _dur(s) - built
        m["emit.return_s"] = action - forced
        m["emit.items"] = len(result)
    m["query_s"] = _dur(whole)
    return result, m, tframe.df


_EVAL_NODE = re.compile(r"(?:ArrowEvalPython|BatchEvalPython) \[(.*?)\], \[")
_UDF_CALL = re.compile(r"\w+\(([^()]*)\)#(\d+)")


def plan_counts(df) -> dict:
    """Python UDF calls in the executed plan of ``df`` and the columns
    they take as input. A cached sub-plan is printed twice (final and
    initial plan), so calls are told apart by expression id."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        df.explain()
    calls = {}
    for node in _EVAL_NODE.finditer(buf.getvalue()):
        for args, expr_id in _UDF_CALL.findall(node.group(1)):
            calls[expr_id] = len([a for a in args.split(",") if a.strip()])
    return {"plan.python_udfs": len(calls), "plan.udf_input_cols": sum(calls.values())}


def udf_kernels(flwor, lines: list[str], config) -> dict:
    """Time the three parts of every clause UDF on sampled input lines,
    single-threaded in this process: decode the in-scope cells into a
    dynamic context, evaluate the clause expression, encode the result.
    Each UDF decodes every in-scope variable, as the engine's do. The
    tuple stream between clauses comes from the clauses' local path.
    Times are microseconds per sampled input row."""
    from repro.core.dynamic_context import DynamicContext
    from repro.core.items import dumps_seq, encode_key, loads_seq
    from repro.core.iterators.basic import VarRefIterator

    spent = {"decode": 0.0, "eval": 0.0, "encode": 0.0}

    def udf(tuples, expr, encode=None):
        names = list(tuples[0]) if tuples else []
        cells = [[dumps_seq(t[v]) for v in names] for t in tuples]
        t0 = time.perf_counter()
        ctxs = [DynamicContext(variables=dict(zip(names, map(loads_seq, row))), config=config)
                for row in cells]
        t1 = time.perf_counter()
        seqs = [expr.materialize(c) for c in ctxs]
        t2 = time.perf_counter()
        if encode is not None:
            for seq in seqs:
                encode(seq)
        t3 = time.perf_counter()
        spent["decode"] += t1 - t0
        spent["eval"] += t2 - t1
        spent["encode"] += t3 - t2
        return seqs

    def key_encoder(empty_greatest: bool, clause: str):
        def encode(seq):
            return encode_key(seq, empty_greatest=empty_greatest, clause=clause), dumps_seq(seq)
        return encode

    first = flwor.clauses[0]
    tuples = [{first.var: loads_seq("[" + line + "]")} for line in lines]
    outer = DynamicContext(config=config)
    for clause in flwor.clauses[1:]:
        kind = _kind(clause)
        if kind == "where":
            udf(tuples, clause.expr)
        elif kind == "let":
            udf(tuples, clause.expr, dumps_seq)
        elif kind == "orderby":
            for expr, _asc, empty_greatest in clause.specs:
                udf(tuples, expr, key_encoder(empty_greatest, "order-by key"))
        elif kind == "groupby":
            keyed = [dict(t) for t in tuples]
            for var, expr in clause.keys:
                if expr is not None:
                    for t, seq in zip(keyed, udf(keyed, expr, dumps_seq)):
                        t[var] = seq
            for var, _ in clause.keys:
                udf(keyed, VarRefIterator(var), key_encoder(False, "group-by key"))
        tuples = list(clause.apply_local(iter(tuples), outer))
    udf(tuples, flwor.return_expr)
    n = max(1, len(lines))
    return {f"udf.{k}_us_per_row": v / n * 1e6 for k, v in spent.items()}


def summarize(runs: list[dict]) -> dict:
    """Median of every metric over repeated measurements."""
    return {k: median(m[k] for m in runs) for k in runs[0]}
