"""Unit tests for the JSONiq parser — AST shapes and error handling."""
import pytest

from repro.jsoniq import ast, parse
from repro.jsoniq.errors import ParseError


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1),
            ("3.5", 3.5),
            ("1e2", 100.0),
            ('"s"', "s"),
            ("true", True),
            ("false", False),
            ("null", None),
            ("true()", True),
            ("false()", False),
        ],
    )
    def test_literal(self, text, value):
        node = parse(text)
        assert isinstance(node, ast.Literal)
        assert node.value == value

    def test_empty_sequence(self):
        node = parse("()")
        assert isinstance(node, ast.SequenceExpr)
        assert node.exprs == []

    def test_comma_sequence(self):
        node = parse("(1, 2, 3)")
        assert isinstance(node, ast.SequenceExpr)
        assert len(node.exprs) == 3

    def test_paren_single_unwrapped(self):
        assert isinstance(parse("(1)"), ast.Literal)


class TestOperators:
    def test_precedence_mul_over_add(self):
        node = parse("1 + 2 * 3")
        assert isinstance(node, ast.Arithmetic) and node.op == "+"
        assert isinstance(node.right, ast.Arithmetic) and node.right.op == "*"

    def test_comparison_lowest(self):
        node = parse("1 + 1 eq 2")
        assert isinstance(node, ast.Comparison)

    @pytest.mark.parametrize("sym,op", [("=", "eq"), ("!=", "ne"), ("<", "lt"),
                                        ("<=", "le"), (">", "gt"), (">=", "ge")])
    def test_general_comparison_aliases(self, sym, op):
        node = parse(f"1 {sym} 2")
        assert isinstance(node, ast.Comparison) and node.op == op

    def test_and_or_precedence(self):
        node = parse("true or false and true")
        assert isinstance(node, ast.BoolOp) and node.op == "or"
        assert isinstance(node.right, ast.BoolOp) and node.right.op == "and"

    def test_not_prefix(self):
        assert isinstance(parse("not true"), ast.NotOp)

    def test_not_function(self):
        assert isinstance(parse("not(true)"), ast.FunctionCall)

    def test_unary_minus(self):
        assert isinstance(parse("-1"), ast.UnaryMinus)

    def test_string_concat(self):
        node = parse('"a" || "b" || "c"')
        assert isinstance(node, ast.StringConcat)
        assert isinstance(node.left, ast.StringConcat)

    def test_range(self):
        assert isinstance(parse("1 to 5"), ast.RangeExpr)

    @pytest.mark.parametrize("op", ["div", "idiv", "mod"])
    def test_division_keywords(self, op):
        node = parse(f"4 {op} 2")
        assert isinstance(node, ast.Arithmetic) and node.op == op


class TestPostfix:
    def test_object_lookup_name(self):
        node = parse("$o.key")
        assert isinstance(node, ast.ObjectLookup)
        assert node.key.value == "key"

    def test_object_lookup_string(self):
        node = parse('$o."a key"')
        assert node.key.value == "a key"

    def test_object_lookup_keyword_name(self):
        # keywords are valid lookup keys (e.g. .count)
        node = parse("$o.count")
        assert isinstance(node, ast.ObjectLookup)

    def test_array_unbox(self):
        assert isinstance(parse("$a[]"), ast.ArrayUnbox)

    def test_array_lookup(self):
        node = parse("$a[[2]]")
        assert isinstance(node, ast.ArrayLookup)

    def test_predicate(self):
        node = parse("$a[$$ gt 1]")
        assert isinstance(node, ast.Predicate)

    def test_chained_postfix(self):
        node = parse('$a.b[].c[$$ eq 1][[2]]')
        assert isinstance(node, ast.ArrayLookup)
        assert isinstance(node.target, ast.Predicate)

    def test_paper_pushdown_query(self):
        node = parse('json-file("input.json").foo[].bar[$$.foobar eq "a"]')
        assert isinstance(node, ast.Predicate)
        assert isinstance(node.target, ast.ObjectLookup)
        assert isinstance(node.target.target, ast.ArrayUnbox)


class TestConstructors:
    def test_object(self):
        node = parse('{"a": 1, b: 2}')
        assert isinstance(node, ast.ObjectConstructor)
        assert [k.value for k, _ in node.pairs] == ["a", "b"]

    def test_empty_object(self):
        assert parse("{}").pairs == []

    def test_array(self):
        node = parse("[1, 2]")
        assert isinstance(node, ast.ArrayConstructor)
        assert isinstance(node.expr, ast.SequenceExpr)

    def test_empty_array(self):
        assert parse("[]").expr is None

    def test_nested(self):
        node = parse('{"a": [{"b": 1}]}')
        assert isinstance(node.pairs[0][1], ast.ArrayConstructor)


class TestFunctionCalls:
    def test_no_args(self):
        node = parse("pi()") if False else parse("count(())")
        assert isinstance(node, ast.FunctionCall)

    def test_args(self):
        node = parse("substring($s, 1, 2)")
        assert node.name == "substring" and len(node.args) == 3

    def test_dashed_name(self):
        assert parse('json-file("p")').name == "json-file"

    def test_count_function_vs_clause(self):
        node = parse("count($x)")
        assert isinstance(node, ast.FunctionCall)


class TestFLWOR:
    def test_minimal(self):
        node = parse("for $x in (1,2) return $x")
        assert isinstance(node, ast.FLWORExpr)
        assert isinstance(node.clauses[0], ast.ForClause)

    def test_multiple_for_bindings(self):
        node = parse("for $x in (1), $y in (2) return ($x, $y)")
        assert len(node.clauses) == 2
        assert all(isinstance(c, ast.ForClause) for c in node.clauses)

    def test_let(self):
        node = parse("let $x := 1 return $x")
        assert isinstance(node.clauses[0], ast.LetClause)

    def test_multiple_let_bindings(self):
        node = parse("let $x := 1, $y := 2 return $y")
        assert len(node.clauses) == 2

    def test_for_allowing_empty_at(self):
        node = parse("for $x allowing empty at $p in () return $p")
        c = node.clauses[0]
        assert c.allowing_empty and c.position_var == "p"

    def test_where(self):
        node = parse("for $x in (1) where $x gt 0 return $x")
        assert isinstance(node.clauses[1], ast.WhereClause)

    def test_group_by_new_var(self):
        node = parse("for $x in (1) group by $k := $x return $k")
        gb = node.clauses[1]
        assert isinstance(gb, ast.GroupByClause)
        assert gb.keys[0].var == "k" and gb.keys[0].expr is not None

    def test_group_by_existing_var(self):
        node = parse("for $x in (1) group by $x return $x")
        assert node.clauses[1].keys[0].expr is None

    def test_group_by_compound(self):
        node = parse("for $x in (1) group by $a := 1, $b := 2 return 1")
        assert len(node.clauses[1].keys) == 2

    def test_order_by_modifiers(self):
        node = parse(
            "for $x in (1) order by $x descending empty greatest, $x ascending return $x"
        )
        specs = node.clauses[1].specs
        assert not specs[0].ascending and specs[0].empty_greatest
        assert specs[1].ascending and not specs[1].empty_greatest

    def test_stable_order_by(self):
        node = parse("for $x in (1) stable order by $x return $x")
        assert node.clauses[1].stable

    def test_count_clause(self):
        node = parse("for $x in (1) count $c return $c")
        assert isinstance(node.clauses[1], ast.CountClause)

    def test_paper_query(self):
        node = parse(
            """
            for $person in json-file("people.json")
            where $person.age le 65
            group by $pos := $person.position
            let $count := count($person) gt 10
            order by $count descending
            return { "position" : $pos, "count" : $count }
            """
        )
        kinds = [type(c).__name__ for c in node.clauses]
        assert kinds == [
            "ForClause", "WhereClause", "GroupByClause", "LetClause", "OrderByClause",
        ]

    def test_nested_flwor(self):
        node = parse("for $x in (for $y in (1,2) return $y * 2) return $x")
        assert isinstance(node.clauses[0].expr, ast.FLWORExpr)


class TestControlFlow:
    def test_if(self):
        node = parse('if (1 eq 1) then "a" else "b"')
        assert isinstance(node, ast.IfExpr)

    def test_some(self):
        node = parse("some $x in (1,2) satisfies $x gt 1")
        assert node.kind == "some" and len(node.bindings) == 1

    def test_every_multi_binding(self):
        node = parse("every $x in (1), $y in (2) satisfies $x lt $y")
        assert node.kind == "every" and len(node.bindings) == 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "for $x in",
            "1 +",
            "for $x in (1)",          # missing return
            "{ 'single': 1 }",         # single quotes unsupported
            "(1, 2",
            "$a[[1]",
            "if (1) then 2",           # missing else
            "let $x = 1 return $x",    # = instead of :=
            "1 2",                      # trailing input
            "count 3",                  # count clause outside FLWOR
        ],
    )
    def test_raises(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize("bad", ["1 eq 2 eq 3", "1 to 2 to 3", "(1 = 2 != 3)"])
    def test_comparison_and_range_do_not_chain(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_deep_nesting(self):
        from repro.jsoniq.parser import MAX_NESTING

        assert parse("(" * 75 + "1" + ")" * 75) == ast.Literal(1)
        assert parse("[" * MAX_NESTING + "1" + "]" * MAX_NESTING)
        for d in (MAX_NESTING + 1, 200):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse("(" * d + "1" + ")" * d)

    def test_long_chains(self):
        from repro.jsoniq.parser import MAX_CHAIN, check_depth

        check_depth(parse(" + ".join(["1"] * MAX_CHAIN)))
        check_depth(parse("$x" + ".a" * (MAX_CHAIN - 1)))
        for bad in [" + ".join(["1"] * (MAX_CHAIN + 1)), " or ".join(["true"] * 500),
                    "$x" + ".a" * MAX_CHAIN,
                    # chains nested in brackets add up
                    "(" + " * ".join(["1"] * 300) + ") + " + " + ".join(["1"] * 300)]:
            with pytest.raises(ParseError, match="nested too deeply"):
                check_depth(parse(bad))
