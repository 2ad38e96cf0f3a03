"""Property-based tests (hypothesis): serialization round-trips, key
encoding consistency with comparison semantics, and engine equivalence
between the optimized and unoptimized group-by paths."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rumble, RumbleConfig
from repro.core import items as I

# JDM items: recursively nested objects/arrays over atomics.
atomics = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
jdm_items = st.recursive(
    atomics,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


class TestSerializationProperties:
    @given(st.lists(jdm_items, max_size=8))
    @settings(max_examples=150)
    def test_dumps_loads_roundtrip(self, seq):
        assert I.loads_seq(I.dumps_seq(seq)) == seq

    @given(st.lists(jdm_items, max_size=5))
    def test_dumps_is_valid_json_array(self, seq):
        decoded = json.loads(I.dumps_seq(seq))
        assert isinstance(decoded, list)


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
