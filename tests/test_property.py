"""Property-based tests (hypothesis): serialization round-trips, key
encoding consistency with comparison semantics, and engine equivalence
between the optimized and unoptimized group-by paths."""
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rumble, RumbleConfig
from repro.core import items as I

#: Text that may hold lone surrogates, which JSON escapes as ``\udc00``.
#: A high one next to a low one would decode as the pair's one character.
texts = st.text(st.one_of(st.characters(), st.sampled_from("\ud800\udbff\udc00\udfff")),
                max_size=20).filter(lambda t: not re.search("[\ud800-\udbff][\udc00-\udfff]", t))
#: Atomics at every edge of the decoders: integers around ±2^53, ±2^63
#: and 2^64 and beyond, full-width floats (subnormals too), NaN, ±INF.
atomics = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63, -(2**63),
                     -(2**63) - 1, 2**64 - 1, 2**64, -(2**64), 10**30, -(10**40)])
    .flatmap(lambda n: st.integers(n - 2, n + 2)),
    st.floats(),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -0.0, float("nan"), float("inf"), float("-inf")]),
    texts,
)
# JDM items: recursively nested objects/arrays over atomics.
jdm_items = st.recursive(
    atomics,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=10,
)

#: JSON texts stdlib and orjson could read differently, or both reject.
EDGE_TEXTS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "5e-324",
    '"\\udc00"', '"\\ud800x"', '"\\ud83d\\ude00"', '"\udc00"',
    '{"a": 1, "b": 2, "a": 3}', '{"b": [], "a": {}, "b": null}',
    '"1234567890123456789"', '{"id": "123456789012345678901234"}',
    "9007199254740993", "9223372036854775807", "-9223372036854775808",
    "-9223372036854775809", "18446744073709551615", "18446744073709551616",
    "123456789012345678901234567890", "1234567890123456789.5",
    "-0", "-0.0", "0.1", "1E+2",
    # a 20-digit run where an integer may start, and where one may not
    "12345678901234567890", "-12345678901234567890", "[12345678901234567890]",
    '{"a": 12345678901234567890}', '{"a":-12345678901234567890}',
    '"x12345678901234567890"', "1e12345678901234567890", "1.5E-12345678901234567890",
    "0.12345678901234567890", "1.12345678901234567890e3",
    "1, 2", "\ufeff1", '"a\tb"', "", " ", "01", "[1,]", "{'a': 1}", "tru", "[", '"',
]


def same(a, b) -> bool:
    """Equal items of equal types, NaN equal to NaN, zeros of the same
    sign, and objects with their keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def decoded(loads, text):
    try:
        return True, loads(text)
    except json.JSONDecodeError as exc:
        return False, str(exc)


dumped_texts = st.builds(json.dumps, jdm_items, ensure_ascii=st.booleans())
edge_texts = st.sampled_from(EDGE_TEXTS)
json_texts = st.one_of(
    dumped_texts,
    edge_texts,
    st.lists(st.one_of(edge_texts, dumped_texts), min_size=1, max_size=4)
    .map(lambda parts: "[" + ",".join(parts) + "]"),
)


class TestSerializationProperties:
    @given(st.lists(jdm_items, max_size=8))
    @settings(max_examples=300)
    def test_dumps_loads_roundtrip(self, seq):
        assert same(I.loads_seq(I.dumps_seq(seq)), seq)

    @given(st.lists(jdm_items, max_size=5))
    def test_dumps_is_valid_json_array(self, seq):
        decoded = json.loads(I.dumps_seq(seq))
        assert isinstance(decoded, list)

    @given(json_texts)
    @settings(max_examples=500)
    def test_loads_is_stdlib_loads(self, text):
        """The same item as ``json.loads``, or its very error."""
        (ok, got), (ok_ref, ref) = decoded(I.loads, text), decoded(json.loads, text)
        assert ok == ok_ref
        assert same(got, ref) if ok else got == ref

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_loads_edge_texts(self, text):
        (ok, got), (ok_ref, ref) = decoded(I.loads, text), decoded(json.loads, text)
        assert ok == ok_ref
        assert same(got, ref) if ok else got == ref


    @pytest.mark.parametrize("depth", [900, 1000, 5000])
    @pytest.mark.parametrize("brackets", ["[]", "{}"])
    def test_loads_deep_nesting(self, depth, brackets):
        """Nesting deeper than stdlib allows fails as it fails there."""
        if brackets == "[]":
            text = "[" * depth + "]" * depth
        else:
            text = '{"a":' * depth + "1" + "}" * depth

        def outcome(loads):
            try:
                return "ok", loads(text)
            except RecursionError:
                return "RecursionError", None

        assert outcome(I.loads) == outcome(json.loads)


class TestKeyEncodingProperties:
    sortable = st.one_of(st.none(), st.booleans(),
                         st.integers(min_value=-10**9, max_value=10**9),
                         st.floats(allow_nan=False, allow_infinity=False,
                                   width=32))

    @given(sortable, sortable)
    @settings(max_examples=200)
    def test_encoding_order_matches_value_compare(self, a, b):
        """For mutually comparable atomics, the §4.7 typed encoding must
        order exactly like JSONiq value comparison."""
        c = I.compare_atomics(a, b)
        if c is None:
            return
        ea, eb = I.encode_key([a]), I.encode_key([b])
        if c < 0:
            assert ea < eb
        elif c > 0:
            assert ea > eb
        else:
            assert ea == eb

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_string_encoding_order(self, a, b):
        ea, eb = I.encode_key([a]), I.encode_key([b])
        assert (ea < eb) == (a < b)

    @given(sortable)
    def test_grouping_determinism(self, a):
        assert I.encode_key([a]) == I.encode_key([a])


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_order_by_sorts(self, values):
        eng = Rumble(None, RumbleConfig(force_local=True))
        src = "(" + ", ".join(map(str, values)) + ")" if values else "()"
        got = eng.run(f"for $x in {src} order by $x return $x")
        assert got == sorted(values)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                    min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_group_count_optimized_equals_unoptimized(self, values):
        """§4.7 COUNT push-down must never change results."""
        src = "(" + ", ".join(f'"{v}"' for v in values) + ")"
        q = (f"for $x in {src} group by $k := $x order by $k "
             f'return {{"k": $k, "n": count($x)}}')
        opt = Rumble(None, RumbleConfig(force_local=True)).run(q)
        unopt = Rumble(
            None, RumbleConfig(force_local=True, enable_optimizations=False)
        ).run(q)
        assert opt == unopt

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_count_clause_matches_enumerate(self, values):
        eng = Rumble(None, RumbleConfig(force_local=True))
        src = "(" + ", ".join(map(str, values)) + ")" if values else "()"
        got = eng.run(f"for $x in {src} count $c return $c")
        assert got == list(range(1, len(values) + 1))
