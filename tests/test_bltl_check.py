import numpy as np
import pytest

from bltlsynth.bltl import (Disjunct, Phase, SequentialSpec, check_sequential,
                            horizon_stages, nested_bound_sum, parse_formula,
                            sequential_witness, to_sequential)

from conftest import (COURIER_FORMULA, COURIER_TRACE, COURIER_TRACE_INNER,
                      COURIER_TRACE_TUBE, MISSION_FORMULA)
from oracles import check_generic, random_spec, random_trace, spec_to_formula


@pytest.fixture
def courier_spec():
    return to_sequential(parse_formula(COURIER_FORMULA), "u")


class TestCheckSequential:
    def test_worked_example_trace_satisfies(self, courier_spec):
        assert check_sequential(COURIER_TRACE, courier_spec)

    def test_worked_example_witness_chain(self, courier_spec):
        assert sequential_witness(COURIER_TRACE, courier_spec) == [
            (1, 1, 1), (2, 2, 1), (4, 2, 1)]

    def test_tube_and_inner_traces_satisfy(self, courier_spec):
        assert check_sequential(COURIER_TRACE_TUBE, courier_spec)
        assert check_sequential(COURIER_TRACE_INNER, courier_spec)

    def test_unsafe_at_start_fails(self, courier_spec):
        assert not check_sequential([("u", 23.4)], courier_spec)

    def test_time_budget_boundary_is_inclusive(self):
        spec = SequentialSpec("u", (Phase(2.0, (Disjunct(0.0, ("p",)),)),))
        assert check_sequential([(None, 2.0), ("p", 1.0)], spec)
        assert not check_sequential([(None, 2.0 + 1e-9), ("p", 1.0)], spec)

    def test_dwell_boundary_is_inclusive(self):
        spec = SequentialSpec("u", (Phase(5.0, (Disjunct(1.0, ("p",)),)),))
        assert check_sequential([(None, 1.0), ("p", 1.0)], spec)
        assert not check_sequential([(None, 1.0), ("p", 1.0 - 1e-9)], spec)

    def test_greedy_first_hit_would_be_wrong(self):
        # the first visit is too short; the second works
        spec = SequentialSpec("u", (Phase(10.0, (Disjunct(1.0, ("p",)),)),))
        trace = [(None, 1.0), ("p", 0.5), (None, 1.0), ("p", 2.0)]
        assert check_sequential(trace, spec)
        assert sequential_witness(trace, spec) == [(1, 3, 1)]

    def test_unsafe_between_phases_fails(self):
        spec = SequentialSpec("u", (
            Phase(10.0, (Disjunct(0.0, ("p",)),)),
            Phase(10.0, (Disjunct(0.0, ("d",)),))))
        trace = [(None, 1.0), ("p", 1.0), ("u", 1.0), (None, 1.0), ("d", 1.0)]
        assert not check_sequential(trace, spec)

    def test_same_state_can_close_two_phases(self):
        spec = SequentialSpec("u", (
            Phase(10.0, (Disjunct(0.0, ("p",)),)),
            Phase(10.0, (Disjunct(0.5, ("p",)),))))
        assert check_sequential([(None, 1.0), ("p", 1.0)], spec)

    def test_start_inside_goal_counts(self):
        spec = SequentialSpec("u", (Phase(0.0, (Disjunct(0.0, ("p",)),)),))
        assert check_sequential([("p", 3.0)], spec)

    def test_disjunct_choice_recorded(self):
        spec = SequentialSpec("u", (Phase(10.0, (
            Disjunct(5.0, ("a",)), Disjunct(0.5, ("b",)))),))
        assert sequential_witness([(None, 1.0), ("b", 1.0)], spec) == [(1, 1, 2)]

    def test_empty_trace_rejected(self, courier_spec):
        with pytest.raises(ValueError):
            check_sequential([], courier_spec)


class TestCheckGeneric:
    def test_worked_example(self, courier_spec):
        phi = parse_formula(COURIER_FORMULA)
        assert check_generic(COURIER_TRACE, phi)

    def test_bounded_always_dwell_boundary(self):
        assert check_generic([("p", 5.0)], parse_formula("G[<=5] p"))
        assert not check_generic([("p", 5.0)], parse_formula("G[<=5.1] p"))

    def test_atom_and_negation(self):
        assert check_generic([("p", 1.0)], parse_formula("p"))
        assert not check_generic([("p", 1.0)], parse_formula("!p"))
        assert check_generic([(None, 1.0)], parse_formula("!p"))

    def test_eventually_window(self):
        phi = parse_formula("F[<=2] p")
        assert check_generic([(None, 2.0), ("p", 1.0)], phi)
        assert not check_generic([(None, 2.5), ("p", 1.0)], phi)

    def test_window_past_trace_end_fails(self):
        assert not check_generic([(None, 1.0)], parse_formula("F[<=5] p"))

    def test_general_always_over_compound(self):
        phi = parse_formula("G[<=2] (a | !b)")
        assert check_generic([("a", 1.5), (None, 1.0)], phi)
        assert not check_generic([("a", 1.5), ("b", 1.0)], phi)
        # window longer than the trace cannot be certified
        assert not check_generic([("a", 1.5)], parse_formula("G[<=2] (a | !b)"))

    def test_zero_bound_always_is_current_state(self):
        assert check_generic([("p", 0.0), (None, 1.0)], parse_formula("G[<=0] p"))

    def test_agrees_with_sequential_on_worked_examples(self, courier_spec):
        phi = spec_to_formula(courier_spec)
        for trace in (COURIER_TRACE, COURIER_TRACE_TUBE, COURIER_TRACE_INNER):
            assert check_generic(trace, phi) == check_sequential(trace, courier_spec)


class TestOracleEquivalence:
    def test_random_instances_agree(self):
        rng = np.random.default_rng(2024)
        disagreements = 0
        for _ in range(1500):
            spec = random_spec(rng, ["a", "b", "c"])
            trace = random_trace(rng, ["a", "b", "c", "u"])
            phi = spec_to_formula(spec)
            if check_sequential(trace, spec) != check_generic(trace, phi):
                disagreements += 1
        assert disagreements == 0

    def test_monotone_in_phase_budget(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            spec = random_spec(rng, ["a", "b"])
            trace = random_trace(rng, ["a", "b", "u"])
            if not check_sequential(trace, spec):
                continue
            j = int(rng.integers(len(spec.phases)))
            bigger = list(spec.phases)
            bigger[j] = Phase(bigger[j].time_bound + 1.0, bigger[j].disjuncts)
            assert check_sequential(trace, SequentialSpec("u", tuple(bigger)))

    def test_monotone_in_dwell(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            spec = random_spec(rng, ["a", "b"])
            trace = random_trace(rng, ["a", "b", "u"])
            if check_sequential(trace, spec):
                continue
            j = int(rng.integers(len(spec.phases)))
            harder = list(spec.phases)
            upgraded = tuple(Disjunct(d.dwell + 1.0, d.props)
                             for d in harder[j].disjuncts)
            harder[j] = Phase(harder[j].time_bound, upgraded)
            assert not check_sequential(trace, SequentialSpec("u", tuple(harder)))


class TestHorizon:
    def test_mission_formula(self):
        assert horizon_stages(parse_formula(MISSION_FORMULA), 2.6) == 9

    def test_courier_formula(self):
        phi = parse_formula(COURIER_FORMULA)
        assert nested_bound_sum(phi) == pytest.approx(10.8)
        assert horizon_stages(phi, 2.6) == 5

    @pytest.mark.parametrize("bound, dt, stages", [(2.1, 0.7, 3), (1.05, 0.15, 7),
                                                   (2.7, 0.3, 9)])
    def test_whole_number_of_stages(self, bound, dt, stages):
        """A bound sum of a whole number of stages takes that many, though its
        float quotient lands just above; a microsecond more takes one more."""
        phi = parse_formula(f"!u U[<={bound}] a")
        assert nested_bound_sum(phi) / dt > stages
        assert horizon_stages(phi, dt) == stages
        assert horizon_stages(parse_formula(f"!u U[<={bound + 1e-6}] a"), dt) == stages + 1

    def test_atom_minimum(self):
        assert horizon_stages(parse_formula("p"), 1.0) == 1

    def test_mission_nested_sum(self):
        assert nested_bound_sum(parse_formula(MISSION_FORMULA)) == pytest.approx(23.0)

    def test_monotone_in_bounds_and_dt(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            spec = random_spec(rng, ["a", "b"])
            phi = spec_to_formula(spec)
            dt = float(rng.uniform(0.5, 3.0))
            k = horizon_stages(phi, dt)
            scaled = SequentialSpec(spec.unsafe, tuple(
                Phase(ph.time_bound + 1.0, ph.disjuncts) for ph in spec.phases))
            assert horizon_stages(spec_to_formula(scaled), dt) >= k
            assert horizon_stages(phi, dt * 1.5) <= k

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            horizon_stages(parse_formula("p"), 0.0)
