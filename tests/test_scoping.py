"""Variable-scoping tests (paper §5.3): the free-variable walk and the scope check."""
import pytest

from repro.jsoniq import ast, check, parse
from repro.jsoniq.errors import StaticError
from repro.jsoniq.scoping import free_refs


def free_names(query: str) -> list[str]:
    return [r.name if isinstance(r, ast.VarRef) else "$$" for r, _ in free_refs(parse(query))]


@pytest.mark.parametrize("query,free", [
    # for $v at $p: both bind for what follows, not in their own source.
    ("for $x at $p in ($x, $p) return ($x, $p, $b)", ["x", "p", "b"]),
    ("let $x := $x return ($x, $y)", ["x", "y"]),
    ("for $x in $s count $c return ($c, $d)", ["s", "d"]),
    # := keys bind in key order.
    ("for $x in (1) group by $k := $k, $j := $k return ($j, $m)", ["k", "m"]),
    # A plain key reads its variable.
    ("for $x in (1) group by $k return $x", ["k"]),
    ("for $k in (1) group by $k return $k", []),
    # Quantifier bindings bind in order.
    ("some $x in $x, $y in $x satisfies $y eq $z", ["x", "z"]),
    # A predicate binds $$ in its predicate only.
    ("$$[$$ eq $n]", ["$$", "n"]),
], ids=["for-at", "let", "count", "group-by-assign", "group-by-plain-unbound",
        "group-by-plain-bound", "quantifier", "predicate"])
def test_free_refs(query, free):
    assert free_names(query) == free


def test_free_refs_walks_deep_trees_without_recursion():
    assert free_names(" + ".join(["$x"] * 5_000)) == ["x"] * 5_000


class TestScopeChecks:
    def test_unbound_variable(self):
        with pytest.raises(StaticError, match=r"\$nope"):
            check(parse("$nope"))

    def test_for_binds(self):
        check(parse("for $x in (1) return $x"))

    def test_let_binds(self):
        check(parse("let $x := 1 return $x"))

    def test_for_position_var(self):
        check(parse("for $x at $p in (1) return $p"))

    def test_count_clause_binds(self):
        check(parse("for $x in (1) count $c return $c"))

    def test_group_key_new_var(self):
        check(parse("for $x in (1) group by $k := $x return $k"))

    def test_group_key_must_exist_without_expr(self):
        with pytest.raises(StaticError, match="group-by key"):
            check(parse("for $x in (1) group by $nope return 1"))

    def test_later_clause_sees_earlier(self):
        check(parse("for $x in (1) let $y := $x where $y gt 0 return $y"))

    def test_earlier_clause_does_not_see_later(self):
        with pytest.raises(StaticError):
            check(parse("for $x in ($y) let $y := 1 return $y"))

    def test_quantified_binds(self):
        check(parse("some $x in (1,2) satisfies $x gt 1"))

    def test_quantified_var_not_visible_outside(self):
        with pytest.raises(StaticError):
            check(parse("(some $x in (1) satisfies true, $x)"))

    def test_context_item_inside_predicate(self):
        check(parse("(1,2)[$$ gt 1]"))

    def test_context_item_outside_predicate(self):
        with pytest.raises(StaticError, match=r"\$\$"):
            check(parse("$$"))

    def test_nested_flwor_scope(self):
        check(parse("for $x in (1) return for $y in (2) return ($x, $y)"))

    def test_inner_var_not_visible_in_outer(self):
        with pytest.raises(StaticError):
            check(parse("for $x in (for $y in (1) return $y) return $y"))
