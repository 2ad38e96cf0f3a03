"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# ===========================================================================
# Rumble-reproduction datasets (paper §6.1) — see DESIGN.md §4 for the
# substitutions. All generators are deterministic in ``seed``.
# ===========================================================================

import json as _json
import os as _os

#: Language names used by the Great Language Game; a realistic subset.
_LANGUAGES = [
    "Albanian", "Arabic", "Bulgarian", "Burmese", "Cantonese", "Croatian",
    "Czech", "Danish", "Dutch", "English", "Estonian", "Finnish", "French",
    "German", "Greek", "Hebrew", "Hindi", "Hungarian", "Indonesian",
    "Italian", "Japanese", "Korean", "Latvian", "Lithuanian", "Mandarin",
    "Norwegian", "Polish", "Portuguese", "Romanian", "Russian", "Serbian",
    "Slovak", "Slovenian", "Spanish", "Swahili", "Swedish", "Tagalog",
    "Thai", "Turkish", "Ukrainian", "Vietnamese",
]

_COUNTRIES = [
    "AU", "US", "GB", "DE", "FR", "CA", "NZ", "SE", "NL", "CH", "NO", "DK",
    "FI", "PL", "ES", "IT", "BR", "IN", "JP", "RU",
]


def confusion_pandas(n: int, *, seed: int = 7) -> pd.DataFrame:
    """Synthetic *Great Language Game* confusion dataset (paper Fig. 1).

    Homogeneous objects with fields guess/target/country/choices/sample/
    date; ``guess == target`` for ~50% of rows so the paper's filter
    query has realistic selectivity. ``choices`` is an array column
    (2–6 languages always containing the target), matching the real
    dataset's arborescence.
    """
    g = _rng(seed)
    target_idx = g.integers(0, len(_LANGUAGES), n)
    correct = g.random(n) < 0.5
    guess_idx = np.where(
        correct, target_idx, (target_idx + g.integers(1, len(_LANGUAGES), n)) % len(_LANGUAGES)
    )
    langs = np.array(_LANGUAGES)
    n_choices = g.integers(2, 7, n)
    # hex sample ids, 32 chars, derived deterministically
    samples = [f"{x:032x}" for x in g.integers(0, 2**63, n).astype(object)]
    dates = pd.to_datetime("2013-01-01") + pd.to_timedelta(g.integers(0, 500, n), unit="D")
    choice_perm = [
        sorted(set(g.choice(len(_LANGUAGES), size=k, replace=False)) | {t})
        for k, t in zip(n_choices, target_idx)
    ]
    return pd.DataFrame(
        {
            "guess": langs[guess_idx],
            "target": langs[target_idx],
            "country": g.choice(_COUNTRIES, n),
            "choices": [[langs[i] for i in c] for c in choice_perm],
            "sample": samples,
            "date": dates.strftime("%Y-%m-%d"),
        }
    )


def reddit_pandas(n: int, *, seed: int = 11) -> pd.DataFrame:
    """Synthetic Reddit comments (paper §6.1's semi-structured dataset).

    Heterogeneous by construction, mimicking the real dump's schema
    drift from 2008 to 2015 (DESIGN.md §4):

    * ``edited`` is a boolean before 2010, a number (epoch) after;
    * ``gilded`` is absent before 2012 (missing key, not null);
    * ``score`` is occasionally a *string* (~1%, unclean ingestion);
    * ``distinguished`` is null for most rows, a string for moderators.

    Returned as a pandas frame of dicts via ``to_records``; use
    :func:`write_jsonlines` to serialize (pandas would force a uniform
    schema, so JSON-Lines is the canonical form of this dataset).
    """
    g = _rng(seed)
    years = g.integers(2008, 2016, n)
    subs = g.choice(
        ["askreddit", "politics", "science", "gaming", "movies", "funny",
         "news", "programming", "aww", "music"], n)
    authors = np.char.add("user_", g.integers(0, max(n // 10, 10), n).astype(str))
    scores = g.integers(-50, 500, n)
    bodies = np.char.add("comment body ", g.integers(0, 1_000_000, n).astype(str))
    created = (years - 1970) * 31_536_000 + g.integers(0, 31_536_000, n)
    score_is_string = g.random(n) < 0.01
    distinguished = g.random(n) < 0.02
    edited_flag = g.random(n) < 0.05
    rows = []
    for i in range(n):
        row = {
            "author": str(authors[i]),
            "subreddit": str(subs[i]),
            "body": str(bodies[i]),
            "score": str(scores[i]) if score_is_string[i] else int(scores[i]),
            "created_utc": int(created[i]),
            "year": int(years[i]),
            "distinguished": "moderator" if distinguished[i] else None,
        }
        if years[i] < 2010:
            row["edited"] = bool(edited_flag[i])
        else:
            row["edited"] = int(created[i]) + 3600 if edited_flag[i] else False
        if years[i] >= 2012:
            row["gilded"] = int(g.integers(0, 3))
        rows.append(row)
    return pd.DataFrame({"obj": rows})


def mess_rows() -> list[dict]:
    """The heterogeneous dataset of paper Fig. 5, verbatim."""
    return [
        {"foo": "1", "bar": 2, "foobar": True},
        {"foo": "2", "bar": [4], "foobar": "false"},
        {"foo": "3", "bar": "6"},
    ]


def write_jsonlines(path: str, objects, *, append: bool = False) -> str:
    """Write an iterable of JSON objects (or a pandas frame with an
    ``obj`` dict column) to a JSON-Lines file; returns ``path``."""
    if isinstance(objects, pd.DataFrame):
        objects = objects["obj"].tolist() if "obj" in objects.columns else (
            objects.to_dict(orient="records")
        )
    _os.makedirs(_os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as f:
        for obj in objects:
            f.write(_json.dumps(obj, separators=(",", ":")))
            f.write("\n")
    return path


def write_confusion(path: str, n: int, *, seed: int = 7, chunk: int = 200_000) -> str:
    """Generate and write ``n`` confusion objects as JSON-Lines,
    chunked so multi-million-object files stream without large RAM."""
    written = 0
    first = True
    while written < n:
        k = min(chunk, n - written)
        pdf = confusion_pandas(k, seed=seed + written)
        write_jsonlines(path, pdf.to_dict(orient="records"), append=not first)
        first = False
        written += k
    return path


def write_reddit(path: str, n: int, *, seed: int = 11, chunk: int = 200_000) -> str:
    """Generate and write ``n`` synthetic Reddit comments as JSON-Lines."""
    written = 0
    first = True
    while written < n:
        k = min(chunk, n - written)
        pdf = reddit_pandas(k, seed=seed + written)
        write_jsonlines(path, pdf, append=not first)
        first = False
        written += k
    return path


def replicated_path(path: str, factor: int) -> str:
    """Comma-joined path list that makes Spark read ``path`` ``factor``
    times — how the paper's 400× replication (Fig. 15) is reproduced
    without writing 400 copies (Hadoop text input accepts comma lists).
    """
    return ",".join([path] * factor)
