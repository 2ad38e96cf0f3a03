"""A host-noise-free guard on the per-row cost of row-local evaluation.

The Python calls made while ``FLWORIterator._run_tail`` evaluates the
``let``/``where``/``return`` of the ``reddit-project`` benchmark query
over fixed tuples do not depend on the machine, so they pin the
interpretation overhead that dominates that query's time. The budget
allows about 22 calls per input row.
"""
import sys

from repro import synth_data
from repro.core import Rumble, RumbleConfig
from repro.core.dynamic_context import DynamicContext

ROWS = 200
#: Calls measured when the budget was set (4,067), plus 10%.
CALL_BUDGET = 4_473

QUERY = (
    'for $c in json-file("unused.json") '
    "let $s := number($c.score) "
    "where $c.year ge 2014 "
    'return {"author": $c.author, "sub": $c.subreddit, '
    '"score": $s, "edited": $c.edited}'
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
    tuples = [{"c": [o]} for o in objs]
    eng = Rumble(None, RumbleConfig(force_local=True))
    flwor = eng.compile(QUERY)
    run = flwor._run_tail(flwor.clauses[1:], DynamicContext(config=eng.config))
    expected = [
        {"author": o["author"], "sub": o["subreddit"], "score": float(o["score"]),
         "edited": o["edited"]}
        for o in objs if o["year"] >= 2014
    ]
    assert list(run(iter(tuples))) == expected  # also builds the evaluators

    out = []
    calls = count_calls(lambda: out.extend(run(iter(tuples))))
    assert out == expected
    assert calls <= CALL_BUDGET, f"{calls / ROWS:.1f} Python calls per row"
