import numpy as np
import pytest

from bltlsynth.bltl import (Always, And, Atom, Eventually, FragmentError, Not,
                            Or, ParseError, Until, format_formula, parse_formula,
                            to_sequential)

from conftest import COURIER_FORMULA, MISSION_FORMULA
from oracles import random_spec, spec_to_formula


class TestParseFormula:
    def test_mission_formula_shape(self):
        phi = parse_formula(MISSION_FORMULA)
        expected = Until(
            Not(Atom("u")),
            And(Always(Atom("p"), 0.8),
                Until(Not(Atom("u")),
                      And(Or(Always(Atom("t1"), 1.0), Always(Atom("t2"), 0.8)),
                          Until(Not(Atom("u")), Atom("d"), 4.0)),
                      5.0)),
            14.0)
        assert phi == expected

    def test_single_always_node(self):
        assert parse_formula("G[<=1] p") == Always(Atom("p"), 1.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ParseError, match="negative bound"):
            parse_formula("p U[<=-1] q")

    @pytest.mark.parametrize("bound", ["1e400", "2.5e308"])
    def test_non_finite_bound_rejected(self, bound):
        """A bound past the float range reads as infinity, which no horizon
        of whole stages covers."""
        with pytest.raises(ParseError, match=r"bound must be finite \(at position 2\)"):
            parse_formula(f"p U[<={bound}] q")

    def test_until_binds_tighter_than_and(self):
        phi = parse_formula("a & !u U[<=5] b")
        assert phi == And(Atom("a"), Until(Not(Atom("u")), Atom("b"), 5.0))

    def test_and_binds_tighter_than_or(self):
        phi = parse_formula("a | b & c")
        assert phi == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_until_right_associative(self):
        phi = parse_formula("a U[<=1] b U[<=2] c")
        assert phi == Until(Atom("a"), Until(Atom("b"), Atom("c"), 2.0), 1.0)

    def test_not_binds_tightest(self):
        assert parse_formula("!a & b") == And(Not(Atom("a")), Atom("b"))

    def test_eventually(self):
        assert parse_formula("F[<=3.5] p") == Eventually(Atom("p"), 3.5)

    def test_parentheses_override(self):
        phi = parse_formula("(a | b) & c")
        assert phi == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & & q")
        assert "position" in str(err.value)

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_formula("p @ q")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(p & q")


class TestFormatRoundTrip:
    def test_mission_formula(self):
        phi = parse_formula(MISSION_FORMULA)
        assert parse_formula(format_formula(phi)) == phi

    def test_random_formulas(self):
        rng = np.random.default_rng(5)
        atoms = ["a", "b", "c", "u"]

        def gen(depth):
            choice = int(rng.integers(0, 7 if depth > 0 else 1))
            if choice == 0:
                return Atom(atoms[int(rng.integers(len(atoms)))])
            if choice == 1:
                return Not(gen(depth - 1))
            if choice == 2:
                return And(gen(depth - 1), gen(depth - 1))
            if choice == 3:
                return Or(gen(depth - 1), gen(depth - 1))
            if choice == 4:
                return Until(gen(depth - 1), gen(depth - 1), float(rng.uniform(0, 9)))
            if choice == 5:
                return Always(gen(depth - 1), float(rng.uniform(0, 9)))
            return Eventually(gen(depth - 1), float(rng.uniform(0, 9)))

        for _ in range(300):
            phi = gen(4)
            assert parse_formula(format_formula(phi)) == phi


class TestToSequential:
    def test_courier_formula_phases(self):
        spec = to_sequential(parse_formula(COURIER_FORMULA), "u")
        assert [ph.time_bound for ph in spec.phases] == [6.2, 2.3, 2.3]
        assert [(d.dwell, d.props) for ph in spec.phases for d in ph.disjuncts] == [
            (0.0, ("p",)), (0.2, ("t",)), (0.0, ("d",))]

    def test_mission_formula_phases(self):
        spec = to_sequential(parse_formula(MISSION_FORMULA), "u")
        assert [ph.time_bound for ph in spec.phases] == [14.0, 5.0, 4.0]
        assert [(d.dwell, d.props) for d in spec.phases[1].disjuncts] == [
            (1.0, ("t1",)), (0.8, ("t2",))]
        assert spec.phases[2].disjuncts == (spec.phases[2].disjuncts[0],)
        assert spec.phases[2].disjuncts[0].props == ("d",)

    def test_bare_atom_normalized_to_zero_dwell(self):
        spec = to_sequential(parse_formula("!u U[<=3] p"), "u")
        assert spec.phases[0].disjuncts[0] == spec.phases[0].disjuncts[0].__class__(0.0, ("p",))

    def test_eventually_rejected(self):
        with pytest.raises(FragmentError):
            to_sequential(parse_formula("F[<=3] p"), "u")

    def test_wrong_until_guard_rejected(self):
        with pytest.raises(FragmentError, match="left-hand side"):
            to_sequential(parse_formula("!w U[<=3] p"), "u")

    def test_conjunction_of_guards_rejected(self):
        with pytest.raises(FragmentError):
            to_sequential(parse_formula("!u U[<=3] (G[<=1] a & G[<=1] b & !u U[<=2] c)"), "u")

    def test_unsafe_in_goal_set_rejected(self):
        with pytest.raises(FragmentError):
            to_sequential(parse_formula("!u U[<=3] u"), "u")

    def test_bare_until_body_rejected(self):
        with pytest.raises(FragmentError):
            to_sequential(parse_formula("!u U[<=3] (!u U[<=2] p)"), "u")

    def test_guard_over_non_atoms_rejected(self):
        with pytest.raises(FragmentError):
            to_sequential(parse_formula("!u U[<=3] G[<=1] (a & b)"), "u")

    def test_round_trip_through_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            spec = random_spec(rng, ["a", "b", "c"])
            again = to_sequential(spec_to_formula(spec), "u")
            assert again == spec
