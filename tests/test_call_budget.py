"""Host-noise-free guards on the per-row cost of row-local evaluation.

The Python calls made while a row-local runner evaluates fixed tuples do
not depend on the machine, so they pin the interpretation overhead that
dominates a query's time:

* the return pass (``FLWORIterator._return_pass``) of the
  ``reddit-project`` benchmark query, fed the way Spark feeds it
  without a prefix frame: the initial ``for``'s items;
* the segment pass (``frame.segment_rows``, the per-row work of
  ``frame.local_pass``) of the ``readme-small`` query: its ``where``
  plus its group key, over encoded rows;
* the whole ``readme-small`` query on the local engine
  (``force_local``), over a ``json-file()``: the path the Fig. 12
  single-threaded baselines run, which no benchmark times;
* builtins over a FLWOR's locals on the local engine, which build no
  dynamic context.
"""
import json
import sys

from repro import synth_data
from repro.core import Rumble, RumbleConfig
from repro.core.dynamic_context import DynamicContext
from repro.core.flwor.frame import segment_rows
from repro.core.items import dumps_seq, encode_key

ROWS = 200
#: Calls measured when the budget was set (453, 2.3 per row), plus 10%.
#: The pass is one generated function: a lookup or a let makes no call,
#: ``number()`` and the comparison one each.
CALL_BUDGET = 498
#: Calls measured when the budget was set (1,346, 6.7 per row), plus 10%.
#: Unchanged cells pass through the segment without a decode-encode trip,
#: a cell decodes through orjson without stdlib ``json``'s Python frames,
#: and a group key is encoded once, not also serialized a second time.
SEGMENT_CALL_BUDGET = 1_481
#: Calls measured when the budget was set (1,808, 9.0 per row), plus 10%.
LOCAL_CALL_BUDGET = 1_988
#: Calls measured when the budget was set (5,432, 27.2 per row), plus
#: 10%. A builtin gets its argument's list, or a source's stream, and
#: no context: ``count`` and ``head`` make one call, ``exists`` and
#: ``empty`` two.
BUILTIN_CALL_BUDGET = 5_975

QUERY = (
    'for $c in json-file("unused.json") '
    "let $s := number($c.score) "
    "where $c.year ge 2014 "
    'return {"author": $c.author, "sub": $c.subreddit, '
    '"score": $s, "edited": $c.edited}'
)
BUILTIN_QUERY = (
    'for $x in 1 to 200 let $v := ($x, $x + 1), $o := {"a": $x} '
    "return (count($v), exists($o.a), sum($v), head($v), empty($o.b))"
)
README_QUERY = (
    'for $i in json-file("unused.json") '
    "where $i.guess eq $i.target "
    "group by $t := $i.target "
    "order by count($i) descending "
    'return {"target": $t, "n": count($i)}'
)


def count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_tail_call_budget():
    objs = synth_data.reddit_pandas(ROWS, seed=5)["obj"].tolist()
    eng = Rumble(None, RumbleConfig(force_local=True))
    flwor = eng.compile(QUERY)
    run, outer = flwor._return_pass("items"), DynamicContext(config=eng.config)
    expected = [
        {"author": o["author"], "sub": o["subreddit"], "score": float(o["score"]),
         "edited": o["edited"]}
        for o in objs if o["year"] >= 2014
    ]
    assert list(run(outer, objs)) == expected  # also builds the evaluators

    out = []
    calls = count_calls(lambda: out.extend(run(outer, objs)))
    assert out == expected
    assert calls <= CALL_BUDGET, f"{calls / ROWS:.1f} Python calls per row"


def test_segment_call_budget():
    objs = synth_data.confusion_pandas(ROWS, seed=5).to_dict(orient="records")
    eng = Rumble(None, RumbleConfig(force_local=True))
    flwor = eng.compile(README_QUERY)
    _, where, group = flwor.clauses[:3]
    # The pass before the group by, as its apply_df builds it: the
    # where, the := key as a let, the key's encoding.
    run = segment_rows([where, *group.row_clauses()], ["i"], ["i", "t"], group.key_specs())
    ctx = DynamicContext(config=eng.config)
    rows = [(dumps_seq([o]),) for o in objs]
    expected = [
        [dumps_seq([o]), dumps_seq([o["target"]]), encode_key([o["target"]])]
        for o in objs if o["guess"] == o["target"]
    ]
    assert list(run(ctx, rows)) == expected  # also builds the evaluators

    out = []
    calls = count_calls(lambda: out.extend(run(ctx, rows)))
    assert out == expected
    assert calls <= SEGMENT_CALL_BUDGET, f"{calls / ROWS:.1f} Python calls per row"


def test_local_call_budget(tmp_path):
    objs = synth_data.confusion_pandas(ROWS, seed=5).to_dict(orient="records")
    path = tmp_path / "confusion.json"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    eng = Rumble(None, RumbleConfig(force_local=True))
    flwor = eng.compile(README_QUERY.replace("unused.json", str(path)))
    counts: dict[str, int] = {}
    for o in objs:
        if o["guess"] == o["target"]:
            counts[o["target"]] = counts.get(o["target"], 0) + 1
    expected = [{"target": t, "n": n}
                for t, n in sorted(counts.items(), key=lambda kv: -kv[1])]
    ctx = DynamicContext(config=eng.config)
    assert flwor.materialize(ctx) == expected  # also builds the evaluators

    out = []
    calls = count_calls(lambda: out.extend(flwor.materialize(DynamicContext(config=eng.config))))
    assert out == expected
    assert calls <= LOCAL_CALL_BUDGET, f"{calls / ROWS:.1f} Python calls per row"


def test_builtin_call_budget():
    eng = Rumble(None, RumbleConfig(force_local=True))
    flwor = eng.compile(BUILTIN_QUERY)
    expected = [y for x in range(1, ROWS + 1) for y in (2, True, 2 * x + 1, x, True)]
    assert flwor.materialize(DynamicContext(config=eng.config)) == expected  # also builds the evaluators

    out = []
    calls = count_calls(lambda: out.extend(flwor.materialize(DynamicContext(config=eng.config))))
    assert out == expected
    assert calls <= BUILTIN_CALL_BUDGET, f"{calls / ROWS:.1f} Python calls per row"
