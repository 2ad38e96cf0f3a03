"""Unit tests for the item model: serialization, effective boolean
value, comparison, and the §4.7 typed key encoding."""
import json

import pytest

from repro import synth_data
from repro.core import items
from repro.jsoniq.errors import NonAtomicKeyError, TypeError_


class TestSequenceSerialization:
    @pytest.mark.parametrize(
        "seq",
        [
            [],
            [None],
            [1],
            [1.5],
            [True, False],
            ["a", "b"],
            [{"k": [1, {"x": None}]}],
            [1, "1", True, None],  # heterogeneous
        ],
    )
    def test_roundtrip(self, seq):
        assert items.loads_seq(items.dumps_seq(seq)) == seq

    def test_null_cell_is_empty_sequence(self):
        assert items.loads_seq(None) == []

    def test_empty_vs_null_distinct(self):
        # The missing-vs-null distinction Spark SQL loses (Fig. 6).
        assert items.dumps_seq([]) != items.dumps_seq([None])

    def test_int_float_distinct(self):
        a = items.loads_seq(items.dumps_seq([1]))[0]
        b = items.loads_seq(items.dumps_seq([1.0]))[0]
        assert isinstance(a, int) and isinstance(b, float)


class TestKinds:
    @pytest.mark.parametrize(
        "item,expected",
        [
            ({}, "object"),
            ([], "array"),
            (True, "boolean"),
            (None, "null"),
            ("s", "string"),
            (1, "number"),
            (1.5, "number"),
        ],
    )
    def test_kind(self, item, expected):
        assert items.kind(item) == expected

    def test_bool_is_not_number(self):
        assert not items.is_number(True)

    def test_atomic(self):
        assert items.is_atomic("x") and not items.is_atomic({})


class TestEffectiveBooleanValue:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ([], False),
            ([True], True),
            ([False], False),
            ([None], False),
            ([""], False),
            (["x"], True),
            ([0], False),
            ([1], True),
            ([0.0], False),
            ([float("nan")], False),
        ],
    )
    def test_ebv(self, seq, expected):
        assert items.effective_boolean_value(seq) is expected

    def test_multi_item_error(self):
        with pytest.raises(TypeError_):
            items.effective_boolean_value([1, 2])

    def test_object_error(self):
        with pytest.raises(TypeError_):
            items.effective_boolean_value([{}])


class TestValueCompare:
    def test_empty_propagates(self):
        assert items.value_compare("eq", [], [1]) == []
        assert items.value_compare("lt", [1], []) == []

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("eq", 1, 1, True),
            ("eq", 1, 1.0, True),
            ("ne", "a", "b", True),
            ("lt", "a", "b", True),
            ("le", 2, 2, True),
            ("gt", 3, 2, True),
            ("ge", None, None, True),
            ("lt", None, 0, True),     # null smaller than any value
            ("lt", None, "", True),
            ("eq", True, True, True),
            ("lt", False, True, True),
        ],
    )
    def test_compare(self, op, a, b, expected):
        assert items.value_compare(op, [a], [b]) == [expected]

    def test_incompatible_eq_false(self):
        assert items.value_compare("eq", [1], ["1"]) == [False]
        assert items.value_compare("ne", [1], ["1"]) == [True]

    def test_incompatible_order_error(self):
        with pytest.raises(TypeError_):
            items.value_compare("lt", [1], ["1"])

    def test_non_atomic_error(self):
        with pytest.raises(TypeError_):
            items.value_compare("eq", [{}], [1])

    def test_multi_item_error(self):
        with pytest.raises(TypeError_):
            items.value_compare("eq", [1, 2], [1])


class TestKeyEncoding:
    @pytest.mark.parametrize(
        "seq,code",
        [
            ([], items.TYPE_EMPTY_LEAST),
            ([None], items.TYPE_NULL),
            ([False], items.TYPE_FALSE),
            ([True], items.TYPE_TRUE),
            (["s"], items.TYPE_STRING),
            ([3], items.TYPE_NUMBER),
            ([3.5], items.TYPE_NUMBER),
        ],
    )
    def test_codes(self, seq, code):
        assert items.encode_key(seq)[0] == code

    def test_empty_greatest(self):
        assert items.encode_key([], empty_greatest=True)[0] == items.TYPE_EMPTY_GREATEST

    def test_string_payload(self):
        assert items.encode_key(["abc"]) == (items.TYPE_STRING, "abc", 0.0, 0.0)

    def test_number_payload(self):
        assert items.encode_key([2]) == (items.TYPE_NUMBER, "", 2.0, 0.0)
        assert items.encode_key([2.5]) == (items.TYPE_NUMBER, "", 2.5, 0.0)

    def test_large_integers_keep_a_residual(self):
        # 2^53 + 1 rounds to the double 2^53; the residual tells them
        # apart and orders them, and 2^53 still equals 2^53.0.
        big = 2**53
        enc = [items.encode_key([n]) for n in (big + 3, big, big + 1, big + 4)]
        assert enc[1] == items.encode_key([float(big)]) == (items.TYPE_NUMBER, "", float(big), 0.0)
        assert enc[2] == (items.TYPE_NUMBER, "", float(big), 1.0)
        assert enc[0] == (items.TYPE_NUMBER, "", float(big + 4), -1.0)
        assert sorted(enc) == [enc[1], enc[2], enc[0], enc[3]]
        assert items.encode_key([-big - 1]) < items.encode_key([-big])

    def test_ordering_matches_jsoniq(self):
        # empty < null < false < true < strings... and numbers group
        # separately; within a family the payload column orders.
        order = [
            items.encode_key(s)
            for s in ([], [None], [False], [True], ["a"], ["b"])
        ]
        assert order == sorted(order)

    @pytest.mark.parametrize("bad", [[{}], [[]], [1, 2]])
    def test_non_atomic_key_error(self, bad):
        with pytest.raises(NonAtomicKeyError):
            items.encode_key(bad)


class TestOrderableTypeCheck:
    def test_compatible_families(self):
        items.check_orderable_types({items.TYPE_STRING, items.TYPE_NULL})
        items.check_orderable_types({items.TYPE_NUMBER, items.TYPE_EMPTY_LEAST})
        items.check_orderable_types({items.TYPE_TRUE, items.TYPE_FALSE})
        items.check_orderable_types(set())

    @pytest.mark.parametrize(
        "codes",
        [
            {items.TYPE_STRING, items.TYPE_NUMBER},
            {items.TYPE_TRUE, items.TYPE_STRING},
            {items.TYPE_FALSE, items.TYPE_NUMBER},
        ],
    )
    def test_incompatible(self, codes):
        with pytest.raises(TypeError_):
            items.check_orderable_types(codes)


class TestDecodeGuard:
    """``items.loads`` sends a text to stdlib ``json`` for its digits only
    when a run of 19 sits where an integer literal may start."""

    def test_generated_lines_stay_on_orjson(self, monkeypatch):
        # The confusion ``sample`` field starts with 16 or more zeros.
        objs = synth_data.confusion_pandas(2_000, seed=7).to_dict(orient="records")
        objs += synth_data.reddit_pandas(2_000, seed=11)["obj"].tolist()
        lines = [json.dumps(o, separators=(",", ":")) for o in objs]
        monkeypatch.setattr(json, "loads", lambda text: pytest.fail(f"stdlib read {text}"))
        assert [items.loads(line) for line in lines] == objs

    def test_reddit_line_costs_one_search(self):
        """No Reddit line holds 19 digits in a row anywhere, so the one
        search of the mask for such a run decides it."""
        objs = synth_data.reddit_pandas(2_000, seed=11)["obj"].tolist()
        masks = [json.dumps(o, separators=(",", ":")).encode().translate(items._MASK)
                 for o in objs]
        assert not any(items._LONG_DIGIT_RUN in mask for mask in masks)
