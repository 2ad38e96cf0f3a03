"""The three paper queries (filter / group / sort, §6.1) in every
system's native formulation, parameterized by the JSON-Lines path.

The JSONiq forms follow the paper's figures: the sorting query is
Fig. 4, the grouping query is the JSONiq equivalent of Fig. 2's
PySpark program, and the filter counts its matches (a count action
forces a full scan in every engine, making end-to-end times
comparable without writing result files).
"""
from __future__ import annotations


def _json_file(path: str, partitions: int | None) -> str:
    return f'json-file("{path}", {partitions})' if partitions else f'json-file("{path}")'


def jsoniq_filter(path: str) -> str:
    return (
        f'count(for $i in json-file("{path}") '
        f"where $i.guess eq $i.target return $i)"
    )


def jsoniq_group(path: str) -> str:
    return (
        f'for $i in json-file("{path}") '
        f"group by $t := $i.target "
        f'return {{"target": $t, "n": count($i)}}'
    )


def jsoniq_sort(path: str, *, partitions: int | None = None) -> str:
    return (
        f"for $i in {_json_file(path, partitions)} "
        f"where $i.guess eq $i.target "
        f"order by $i.target ascending, $i.country descending, $i.date descending "
        f'return {{"guess": $i.guess, "target": $i.target, '
        f'"country": $i.country, "date": $i.date}}'
    )


def jsoniq_reddit_filter(path: str, *, partitions: int | None = None) -> str:
    """The 'highly filtering' Reddit query of the speedup analysis
    (§6.5): select distinguished moderator comments with high score —
    selective enough that the output is tiny and runtime is dominated
    by the parallel scan. ``score`` is heterogeneous (occasionally a
    string in the unclean dump), so it is coerced on the fly with
    ``number()`` — the Fig. 7 idiom, impossible in plain Spark SQL."""
    return (
        f"count(for $c in {_json_file(path, partitions)} "
        f'where $c.distinguished eq "moderator" and number($c.score) ge 100 '
        f"return $c)"
    )


#: DuckDB formulations used by the oracle tests (identical semantics on
#: the homogeneous confusion dataset).
DUCKDB_FILTER = "SELECT COUNT(*) AS n FROM confusion WHERE guess = target"
DUCKDB_GROUP = "SELECT target, COUNT(*) AS n FROM confusion GROUP BY target"
DUCKDB_SORT = (
    "SELECT guess, target, country, date FROM confusion "
    "WHERE guess = target ORDER BY target ASC, country DESC, date DESC"
)
