"""FLWOR semantics on the local execution path (paper §4.2–§4.10,
single-threaded): clause composition, grouping with heterogeneous and
compound keys, ordering with modifiers, count clause, shadowing."""
import pytest

from repro.jsoniq.errors import NonAtomicKeyError, TypeError_


class TestForLet:
    def test_for_iterates(self, local_engine):
        assert local_engine.run("for $x in (1, 2, 3) return $x * 2") == [2, 4, 6]

    def test_for_over_empty(self, local_engine):
        assert local_engine.run("for $x in () return $x") == []

    def test_cartesian_product(self, local_engine):
        got = local_engine.run('for $x in (1, 2) for $y in ("a", "b") return $x || $y')
        assert got == ["1a", "1b", "2a", "2b"]

    def test_multi_binding_for(self, local_engine):
        got = local_engine.run('for $x in (1, 2), $y in (10, 20) return $x + $y')
        assert got == [11, 21, 12, 22]

    def test_let_binds_whole_sequence(self, local_engine):
        assert local_engine.run("let $s := (1, 2, 3) return count($s)") == [3]

    def test_let_inside_for(self, local_engine):
        got = local_engine.run("for $x in (1, 2) let $y := $x * 10 return $y")
        assert got == [10, 20]

    def test_let_redeclaration(self, local_engine):
        got = local_engine.run("let $x := 1 let $x := $x + 1 return $x")
        assert got == [2]

    def test_for_allowing_empty(self, local_engine):
        got = local_engine.run(
            "for $x allowing empty in () return count($x)"
        )
        assert got == [0]

    def test_for_position_var(self, local_engine):
        got = local_engine.run(
            'for $x at $p in ("a", "b", "c") return {"p": $p, "x": $x}'
        )
        assert got == [{"p": 1, "x": "a"}, {"p": 2, "x": "b"}, {"p": 3, "x": "c"}]

    def test_later_for_sees_earlier_var(self, local_engine):
        got = local_engine.run("for $x in (2, 3) for $y in (1 to $x) return $y")
        assert got == [1, 2, 1, 2, 3]


class TestWhere:
    def test_filter(self, local_engine):
        assert local_engine.run("for $x in (1, 2, 3, 4) where $x mod 2 eq 0 return $x") == [2, 4]

    def test_empty_condition_is_false(self, local_engine):
        got = local_engine.run('for $x in ({"a": 1}, {}) where $x.a return $x')
        assert got == [{"a": 1}]

    def test_multiple_where(self, local_engine):
        got = local_engine.run(
            "for $x in (1 to 10) where $x gt 3 where $x lt 6 return $x"
        )
        assert got == [4, 5]


class TestGroupBy:
    def test_basic_grouping(self, local_engine):
        got = local_engine.run(
            'for $x in ("a", "b", "a", "a") group by $k := $x '
            'return {"k": $k, "n": count($x)}'
        )
        assert sorted(got, key=lambda o: o["k"]) == [
            {"k": "a", "n": 3},
            {"k": "b", "n": 1},
        ]

    def test_group_by_existing_var(self, local_engine):
        got = local_engine.run(
            "for $x in (1, 2, 1) group by $x return $x"
        )
        assert sorted(got) == [1, 2]

    def test_non_grouping_var_materialized(self, local_engine):
        got = local_engine.run(
            'for $x in (1, 2, 3, 4) let $k := $x mod 2 group by $k '
            "return sum($x)"
        )
        assert sorted(got) == [4, 6]  # odds 1+3, evens 2+4

    def test_compound_keys(self, local_engine):
        got = local_engine.run(
            'for $o in ({"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 1, "b": "x"}) '
            "group by $ka := $o.a, $kb := $o.b "
            'return {"a": $ka, "b": $kb, "n": count($o)}'
        )
        assert sorted(got, key=lambda o: o["b"]) == [
            {"a": 1, "b": "x", "n": 2},
            {"a": 1, "b": "y", "n": 1},
        ]

    def test_heterogeneous_keys(self, local_engine):
        # §4.7: grouping works when keys have different types.
        got = local_engine.run(
            'for $x in (1, "1", true, null, 1, "1") group by $k := $x '
            "return count($x)"
        )
        assert sorted(got) == [1, 1, 2, 2]

    def test_missing_key_groups_as_empty(self, local_engine):
        got = local_engine.run(
            'for $o in ({"c": "a"}, {}, {"c": "a"}, {}) group by $k := $o.c '
            "return count($o)"
        )
        assert sorted(got) == [2, 2]

    def test_null_and_empty_group_separately(self, local_engine):
        got = local_engine.run(
            'for $o in ({"c": null}, {}) group by $k := $o.c return count($o)'
        )
        assert sorted(got) == [1, 1]

    def test_paper_figure7_on_the_fly_coercion(self, local_engine):
        # Fig. 7: country sometimes string, sometimes array, sometimes
        # missing — normalized on the fly in the grouping expression.
        got = local_engine.run(
            """
            for $e in (
              {"country": "AU"},
              {"country": ["AU", "NZ"]},
              {"country": "FR"},
              {}
            )
            group by $c := (
              if (exists($e.country[]))
              then $e.country[][1]
              else if (exists($e.country)) then $e.country else "unknown"
            )
            return {"country": $c, "n": count($e)}
            """
        )
        assert sorted(got, key=lambda o: o["country"]) == [
            {"country": "AU", "n": 2},
            {"country": "FR", "n": 1},
            {"country": "unknown", "n": 1},
        ]

    def test_non_atomic_key_error(self, local_engine):
        with pytest.raises(NonAtomicKeyError):
            local_engine.run(
                "for $x in ([1], [2]) group by $k := $x return $k"
            )

    def test_multi_item_key_error(self, local_engine):
        with pytest.raises(NonAtomicKeyError):
            local_engine.run(
                "for $x in (1, 2) group by $k := (1, 2) return $k"
            )

    def test_group_preserves_let_sequences(self, local_engine):
        got = local_engine.run(
            "for $x in (1, 2, 3) let $s := ($x, $x) group by $k := $x mod 2 "
            "return count($s)"
        )
        assert sorted(got) == [2, 4]

    def test_large_integer_keys_stay_apart(self, local_engine):
        # 2^53 + 1 rounds to the same double as 2^53; 2^53.0 equals 2^53.
        got = local_engine.run(
            "for $x in (9007199254740992, 9007199254740993, 9007199254740992.0) "
            "group by $k := $x return count($x)"
        )
        assert sorted(got) == [1, 2]


class TestOrderBy:
    def test_ascending_default(self, local_engine):
        assert local_engine.run("for $x in (3, 1, 2) order by $x return $x") == [1, 2, 3]

    def test_descending(self, local_engine):
        assert local_engine.run(
            "for $x in (3, 1, 2) order by $x descending return $x"
        ) == [3, 2, 1]

    def test_large_integer_keys_keep_their_order(self, local_engine):
        src = "(9007199254740993, 9007199254740992, 9007199254740994)"
        ordered = [9007199254740992, 9007199254740993, 9007199254740994]
        assert local_engine.run(f"for $x in {src} order by $x return $x") == ordered
        assert local_engine.run(
            f"for $x in {src} order by $x descending return $x") == ordered[::-1]

    def test_strings(self, local_engine):
        assert local_engine.run(
            'for $x in ("b", "a", "c") order by $x return $x'
        ) == ["a", "b", "c"]

    def test_multi_key(self, local_engine):
        got = local_engine.run(
            'for $o in ({"a": 1, "b": 2}, {"a": 1, "b": 1}, {"a": 0, "b": 9}) '
            "order by $o.a ascending, $o.b descending return $o.b"
        )
        assert got == [9, 2, 1]

    def test_empty_least_default(self, local_engine):
        got = local_engine.run(
            'for $o in ({"v": 2}, {}, {"v": 1}) order by $o.v return count($o.v)'
        )
        assert got == [0, 1, 1]

    def test_empty_greatest(self, local_engine):
        got = local_engine.run(
            'for $o in ({"v": 2}, {}, {"v": 1}) order by $o.v empty greatest '
            "return count($o.v)"
        )
        assert got == [1, 1, 0]

    def test_null_below_values(self, local_engine):
        got = local_engine.run(
            'for $o in ({"v": 1}, {"v": null}) order by $o.v return $o.v'
        )
        assert got == [None, 1]

    def test_empty_below_null(self, local_engine):
        got = local_engine.run(
            'for $o in ({"v": null}, {}) order by $o.v return count($o.v)'
        )
        assert got == [0, 1]

    def test_booleans_false_before_true(self, local_engine):
        got = local_engine.run(
            "for $x in (true, false, true) order by $x return $x"
        )
        assert got == [False, True, True]

    def test_incompatible_types_error(self, local_engine):
        with pytest.raises(TypeError_):
            local_engine.run('for $x in (1, "a") order by $x return $x')

    def test_non_atomic_sort_key_error(self, local_engine):
        with pytest.raises(NonAtomicKeyError):
            local_engine.run("for $x in ([1], [2]) order by $x return $x")

    def test_order_after_group(self, local_engine):
        got = local_engine.run(
            'for $x in ("b", "a", "b", "c", "b", "a") group by $k := $x '
            "let $n := count($x) order by $n descending, $k ascending "
            'return {"k": $k, "n": $n}'
        )
        assert got == [
            {"k": "b", "n": 3},
            {"k": "a", "n": 2},
            {"k": "c", "n": 1},
        ]


class TestCountClause:
    def test_count_positions(self, local_engine):
        got = local_engine.run('for $x in ("a", "b", "c") count $c return $c')
        assert got == [1, 2, 3]

    def test_count_after_where(self, local_engine):
        got = local_engine.run(
            "for $x in (1 to 6) where $x mod 2 eq 0 count $c return {$c: $x}"
        )
        assert got == [{"1": 2}, {"2": 4}, {"3": 6}]

    def test_count_after_order(self, local_engine):
        # rank assignment, like the paper's Fig. 8 `count $position`
        got = local_engine.run(
            "for $x in (30, 10, 20) order by $x descending count $rank "
            'return {"rank": $rank, "v": $x}'
        )
        assert got == [
            {"rank": 1, "v": 30},
            {"rank": 2, "v": 20},
            {"rank": 3, "v": 10},
        ]


class TestNestingAndShadowing:
    def test_nested_flwor_in_return(self, local_engine):
        got = local_engine.run(
            "for $x in (1, 2) return [ for $y in (1 to $x) return $y ]"
        )
        assert got == [[1], [1, 2]]

    def test_nested_flwor_in_for_source(self, local_engine):
        got = local_engine.run(
            "for $x in (for $y in (1, 2, 3) where $y gt 1 return $y) return $x * 10"
        )
        assert got == [20, 30]

    def test_context_item_inside_nested_flwor(self, local_engine):
        # A FLWOR does not change the focus: $$ is the predicate's item.
        assert local_engine.run("(1, 2, 3)[let $y := 1 return $$ ge 2]") == [2, 3]
        assert local_engine.run("(1, 2, 3)[for $z in (1) return $$ ge 3]") == [3]

    def test_outer_variable_shadowed_after_for(self, local_engine):
        # $y reads the outer $z; the let of $z in one tuple does not
        # reach the next tuple.
        got = local_engine.run(
            "let $z := 0 return for $x in (1, 2) let $y := $z let $z := $x * 10 "
            "return [$y, $z]"
        )
        assert got == [[0, 10], [0, 20]]

    def test_for_var_shadows_outer(self, local_engine):
        got = local_engine.run(
            "let $x := 100 return for $x in (1, 2) return $x"
        )
        assert got == [1, 2]

    def test_flwor_as_function_arg(self, local_engine):
        got = local_engine.run("count(for $x in (1 to 5) where $x gt 2 return $x)")
        assert got == [3]

    def test_paper_style_full_query(self, local_engine):
        got = local_engine.run(
            """
            for $person in (
              {"age": 30, "position": "dev"},
              {"age": 70, "position": "dev"},
              {"age": 40, "position": "ops"},
              {"age": 50, "position": "dev"}
            )
            where $person.age le 65
            group by $pos := $person.position
            let $count := count($person)
            order by $count descending
            return {"position": $pos, "count": $count}
            """
        )
        assert got == [
            {"position": "dev", "count": 2},
            {"position": "ops", "count": 1},
        ]
