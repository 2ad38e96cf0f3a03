"""Static-context / variable-scoping tests (paper §5.3)."""
import pytest

from repro.jsoniq import check, parse
from repro.jsoniq.errors import StaticError
from repro.jsoniq.scoping import StaticContext


class TestStaticContextChaining:
    def test_bind_and_lookup(self):
        ctx = StaticContext()
        ctx.bind("x")
        assert ctx.is_bound("x") and not ctx.is_bound("y")

    def test_child_sees_parent(self):
        parent = StaticContext()
        parent.bind("x")
        child = parent.child()
        assert child.is_bound("x")

    def test_parent_does_not_see_child(self):
        parent = StaticContext()
        child = parent.child()
        child.bind("x")
        assert not parent.is_bound("x")


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
