"""Tests for the §4.7 group-by optimizations: COUNT push-down and
unused-variable pruning, plus their end-to-end equivalence."""
import pytest

from repro.core import Rumble, RumbleConfig
from repro.core.optimizer import plan_groupby_aggregations
from repro.core.translator import translate
from repro.jsoniq import NonAtomicKeyError, ast, parse


def plan(query: str) -> dict[str, str]:
    tree = parse(query)
    assert isinstance(tree, ast.FLWORExpr)
    gb_index = next(
        i for i, c in enumerate(tree.clauses) if isinstance(c, ast.GroupByClause)
    )
    return plan_groupby_aggregations(tree, gb_index)[0]


class TestPlanning:
    def test_count_only_usage_pushes_down(self):
        modes = plan(
            "for $x in (1, 2) group by $k := $x return count($x)"
        )
        assert modes == {"x": "count"}

    def test_unused_variable_dropped(self):
        modes = plan("for $x in (1, 2) group by $k := $x return $k")
        assert modes == {"x": "drop"}

    def test_other_usage_materializes(self):
        modes = plan("for $x in (1, 2) group by $k := $x return sum($x)")
        assert modes == {"x": "materialize"}

    def test_mixed_count_and_other_materializes(self):
        modes = plan(
            "for $x in (1, 2) group by $k := $x return count($x) + sum($x)"
        )
        assert modes == {"x": "materialize"}

    def test_let_bound_var_never_count_mode(self):
        # let-bound sequences may hold several items per tuple; Spark's
        # COUNT would count tuples, so push-down must not fire.
        modes = plan(
            "for $x in (1, 2) let $s := ($x, $x) group by $k := $x mod 2 "
            "return (count($s), $k)"
        )
        assert modes["s"] == "materialize"
        assert modes["x"] == "drop"

    def test_usage_in_later_clause_counts(self):
        modes = plan(
            "for $x in (1, 2) group by $k := $x "
            "order by count($x) return $k"
        )
        assert modes == {"x": "count"}

    def test_usage_in_where_after_group(self):
        modes = plan(
            "for $x in (1, 2) group by $k := $x "
            "where sum($x) gt 1 return $k"
        )
        assert modes == {"x": "materialize"}

    def test_shadowed_usage_does_not_materialize(self):
        # Inner FLWOR rebinds $x; references under it are not ours.
        modes = plan(
            "for $x in (1, 2) group by $k := $x "
            "return (count($x), for $x in (9) return $x)"
        )
        assert modes == {"x": "count"}

    def test_rewrite_marks_count_call(self):
        tree = parse("for $x in (1, 2) group by $k := $x return count($x)")
        _modes, calls = plan_groupby_aggregations(tree, 1)
        ret = tree.return_expr
        assert calls == [ret] and calls[0] is ret
        # The planner reports the call site; the AST still reads count($x).
        assert isinstance(ret, ast.FunctionCall)
        assert ret.name == "count" and ret.args == [ast.VarRef("x")]

    def test_shadowed_call_is_not_reported(self):
        tree = parse(
            "for $x in (1, 2) group by $k := $x "
            "return (count($x), for $x in (9) return count($x))"
        )
        _modes, calls = plan_groupby_aggregations(tree, 1)
        assert calls == [tree.return_expr.exprs[0]]
        assert calls[0] is tree.return_expr.exprs[0]

    def test_later_rebinding_hides_uses(self):
        # After `let $x := 5`, count($x) counts the new binding.
        modes = plan(
            "for $x in (1, 2) group by $k := $x let $x := 5 return count($x)"
        )
        assert modes == {"x": "drop"}

    def test_later_group_by_regroups(self):
        # A count-mode column cannot be merged by the second group-by.
        modes = plan(
            "for $x in (1, 2) group by $k := $x mod 2 group by $j := $k "
            "return count($x)"
        )
        assert modes == {"x": "materialize"}

    def test_earlier_group_key_is_not_single(self):
        # A key may be the empty sequence; Spark's COUNT would count 1.
        tree = parse(
            "for $x in (1, 2) group by $k := $x.a group by $j := 1 "
            "return count($k)"
        )
        assert plan_groupby_aggregations(tree, 2)[0] == {"x": "drop", "k": "materialize"}


class TestEndToEndEquivalence:
    """The optimized plans must return exactly what unoptimized local
    grouping returns."""

    @pytest.mark.parametrize(
        "query,expected",
        [
            (
                'for $x in ("a", "b", "a") group by $k := $x '
                'return {"k": $k, "n": count($x)}',
                [{"k": "a", "n": 2}, {"k": "b", "n": 1}],
            ),
            (
                "for $x in (1, 2, 3, 4, 5) group by $k := $x mod 2 "
                "order by $k return count($x)",
                [2, 3],
            ),
            (
                "for $x in (1, 2, 3) group by $k := 1 return count($x)",
                [3],
            ),
        ],
    )
    def test_count_pushdown_results(self, local_engine, query, expected):
        got = local_engine.run(query)
        key = lambda o: str(o)  # noqa: E731
        assert sorted(got, key=key) == sorted(expected, key=key)

    def test_drop_mode_still_returns_keys(self, local_engine):
        got = local_engine.run(
            'for $x in ("b", "a", "b") group by $k := $x order by $k return $k'
        )
        assert got == ["a", "b"]

    @pytest.mark.parametrize(
        "query,expected",
        [
            (
                "for $x in (1, 2, 3) group by $k := $x mod 2 let $x := 5 "
                "order by $k return count($x)",
                [1, 1],
            ),
            (
                "for $x in (1, 2, 3, 4, 5, 6) group by $k := $x mod 3 "
                "group by $j := $k mod 2 order by $j return count($x)",
                [4, 2],
            ),
        ],
        ids=["rebound-after-group", "two-group-bys"],
    )
    def test_count_pushdown_respects_later_clauses(self, local_engine, query, expected):
        assert local_engine.run(query) == expected

    def test_translating_twice_gives_same_results(self):
        # The optimized translation must leave the tree as it found it.
        tree = parse(
            "for $x in (1, 2, 2) group by $k := $x order by $k return count($x)"
        )
        ctx = Rumble(None, RumbleConfig(force_local=True))._ctx()
        assert translate(tree).materialize(ctx) == [1, 2]
        assert translate(tree, optimize=False).materialize(ctx) == [1, 2]

    def test_nested_plain_key_reads_outer_variable(self):
        # `group by $x` in the nested FLWOR reads the outer $x, a group of
        # two items for $k = 1: it is no count, and both plans raise.
        query = ("for $x in (1, 1, 2) group by $k := $x order by $k "
                 "return [for $y in (1) group by $x return count($x)]")
        assert plan(query) == {"x": "materialize"}
        ctx = Rumble(None, RumbleConfig(force_local=True))._ctx()
        for optimize in (True, False):
            with pytest.raises(NonAtomicKeyError):
                translate(parse(query), optimize=optimize).materialize(ctx)

    def test_explain_shows_identity_rewrite(self, local_engine):
        tree = local_engine.explain(
            "for $x in (1, 2) group by $k := $x return count($x)"
        )
        # the count() call disappeared: the return expr is a plain VarRef
        assert "FunctionCallIterator count" not in tree
        assert "VarRefIterator $x" in tree
