import os

import numpy as np
import pytest

from bltlsynth import synthesis
from bltlsynth.bltl import parse_formula, to_sequential
from bltlsynth.dynamics import NoiseModel
from bltlsynth.mdp import EMPTY_HISTORY, STREAM_POLICY_EVAL, PathSampler, episode_rng
from bltlsynth.synthesis import (Policy, QTable, bie_estimate, determinize,
                                 evaluate_policy, improve_policy,
                                 posterior_interval_coverage, simulate_true_system,
                                 synthesize, theorem_bound_holds, uniform_policy,
                                 validate_true_system)
from bltlsynth.synthesis import _TrueSystemTask, _episode_pool, _map_episodes

from conftest import policy_from_rows, simple_env
from oracles import (all_success_stop_count, determinize_rows, generator_drawing,
                     improve_rows, merged_pairs, pair_counts, tile_by_cumsum)


def table_of(pairs, n_actions=3):
    """QTable holding (estimate, visits) per (history, action) pair."""
    index = {}
    for state, _ in pairs:
        index.setdefault(state, len(index))
    estimate = np.full((len(index), n_actions), -np.inf)
    visits = np.zeros((len(index), n_actions), dtype=np.int64)
    for (state, action), (e, v) in pairs.items():
        estimate[index[state], action] = e
        visits[index[state], action] = v
    return QTable(index, estimate, visits)


def pairs_of(q):
    """(estimate, visits) per visited (history, action) pair of a QTable."""
    return {(state, a): (float(q.estimate[i, a]), int(q.visits[i, a]))
            for state, i in q.index.items()
            for a in range(q.visits.shape[1]) if q.visits[i, a]}


def merge_counts(q, counts, history_weight, n_actions=3):
    """Fold (satisfied, visits) per (history, action) pair into a QTable."""
    index = dict(q.index)
    for state, _ in counts:
        index.setdefault(state, len(index))
    sat = np.zeros((len(index), n_actions), dtype=np.int64)
    visits = np.zeros_like(sat)
    for (state, action), (s, v) in counts.items():
        sat[index[state], action] = s
        visits[index[state], action] = v
    return q.merged(index, sat, visits, history_weight)


def row_of(policy, state):
    return policy.probs[policy.index[state]]


@pytest.fixture
def easy_setup(demo_params, zero_noise):
    """Start inside the goal region: every rollout satisfies."""
    env = simple_env([("a", (-1.0, -1.0, 1.0, 1.0)), ("u", (5.0, 5.0, 6.0, 6.0))],
                     start=(0.0, 0.0, 0.0))
    formula = parse_formula("!u U[<=4] a")
    spec = to_sequential(formula, "u")
    sampler = PathSampler(env, spec, demo_params, zero_noise, 2)
    return env, formula, spec, sampler


@pytest.fixture
def hard_setup(demo_params, zero_noise):
    """Zero time budget with the goal away from the start: unsatisfiable."""
    env = simple_env([("a", (3.0, -1.0, 4.0, 1.0)), ("u", (5.0, 5.0, 6.0, 6.0))],
                     start=(0.0, 0.0, 0.0))
    formula = parse_formula("!u U[<=0] a")
    spec = to_sequential(formula, "u")
    return env, formula, spec


class TestSampleAction:
    def test_draw_for_draw_equal_to_generator_choice(self):
        rng = np.random.default_rng(4)
        rows = [np.array([0.3, 0.0, 0.7]), np.array([0.0, 0.0, 1.0]),
                np.full(3, 1.0 / 3.0)]
        for _ in range(40):
            row = rng.random(4) * (rng.random(4) < 0.7)
            row[int(rng.integers(4))] += 0.05
            rows.append(row / row.sum())
        for k, row in enumerate(rows):
            policy = Policy(len(row), {EMPTY_HISTORY: 0}, probs=row[None])
            a, b = np.random.default_rng(k), np.random.default_rng(k)
            for _ in range(500):
                assert policy.sample_action(EMPTY_HISTORY, a.random()) == \
                    int(b.choice(len(row), p=row))

    def test_row_whose_sum_is_not_one(self):
        # ten entries of 0.1 sum to 1 - 2**-53: a u on (or a float away from)
        # any running sum, divided by the last or not, gives choice's action
        row = np.full(10, 0.1)
        policy = Policy(10, {EMPTY_HISTORY: 0}, probs=row[None])
        cdf = np.cumsum(row)
        assert cdf[-1] != 1.0
        draws = set()
        for cut in [*cdf, *(cdf / cdf[-1])]:
            for u in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)):
                if 0.5 <= u < 1.0:  # every float there is a possible draw
                    draws.add(float(u))
        assert len(draws) >= 20
        for u in sorted(draws):
            assert generator_drawing(u).random() == u
            assert policy.sample_action(EMPTY_HISTORY, u) == \
                int(generator_drawing(u).choice(10, p=row)), u

    def test_unseen_state_draws_uniformly(self):
        policy = uniform_policy(3)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(500):
            assert policy.sample_action(((1, 2, 2),), a.random()) == \
                int(b.choice(3, p=np.full(3, 1.0 / 3.0)))


class TestQTable:
    def test_fresh_pair_takes_plain_ratio(self):
        q = merge_counts(QTable(), {(EMPTY_HISTORY, 1): (4, 10)}, history_weight=0.6)
        estimate, visits = pairs_of(q)[(EMPTY_HISTORY, 1)]
        assert estimate == pytest.approx(0.4)
        assert visits == 10

    def test_smoothing_blends_old_and_fresh(self):
        q0 = table_of({(EMPTY_HISTORY, 0): (0.5, 10)})
        q1 = merge_counts(q0, {(EMPTY_HISTORY, 0): (9, 10)}, history_weight=0.6)
        estimate, visits = pairs_of(q1)[(EMPTY_HISTORY, 0)]
        assert estimate == pytest.approx(0.66)
        assert visits == 20

    def test_untouched_pairs_carry_over(self):
        q0 = table_of({(EMPTY_HISTORY, 0): (0.5, 10)})
        q1 = merge_counts(q0, {(EMPTY_HISTORY, 1): (1, 1)}, history_weight=0.6)
        assert pairs_of(q1)[(EMPTY_HISTORY, 0)] == (0.5, 10)
        assert q1.q_pairs == 2

    def test_unvisited_pairs_never_win_an_argmax(self):
        q = merge_counts(QTable(), {(EMPTY_HISTORY, 2): (0, 4), (((1, 1, 1),), 0): (1, 2)},
                         history_weight=0.6)
        assert q.estimate.tolist() == [[-np.inf, -np.inf, 0.0], [0.5, -np.inf, -np.inf]]
        assert q.visits.tolist() == [[0, 0, 4], [2, 0, 0]]
        assert q.estimate.argmax(axis=1).tolist() == [2, 0]


class TestEvaluatePolicy:
    def test_all_satisfying_paths_give_unit_estimates(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, n_sat = evaluate_policy(uniform_policy(3), 20, QTable(), sampler,
                                   history_weight=0.6, master_seed=5)
        assert n_sat == 20
        assert (q.estimate[q.visits > 0] == 1.0).all()
        assert q.visits.sum() == 20 * 2

    def test_episode_count_validated(self, easy_setup):
        _, _, _, sampler = easy_setup
        with pytest.raises(ValueError):
            evaluate_policy(uniform_policy(3), 0, QTable(), sampler,
                            history_weight=0.6, master_seed=5)


class TestImprovePolicy:
    def test_reinforces_best_action(self):
        q = table_of({(EMPTY_HISTORY, 0): (0.1, 5),
                      (EMPTY_HISTORY, 1): (0.9, 5),
                      (EMPTY_HISTORY, 2): (0.4, 5)})
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        row = row_of(mu, EMPTY_HISTORY)
        assert row[1] == pytest.approx(0.4 / 3 + 0.6)
        assert row[0] == pytest.approx(0.4 / 3)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_update_is_bounded_by_greediness(self):
        q = table_of({(EMPTY_HISTORY, 2): (1.0, 1)})
        g = 0.05
        mu = improve_policy(uniform_policy(3), q, greediness=g)
        assert np.max(np.abs(row_of(mu, EMPTY_HISTORY) - 1 / 3)) <= g + 1e-12

    def test_ties_break_to_lowest_action(self):
        q = table_of({(EMPTY_HISTORY, 2): (0.7, 5),
                      (EMPTY_HISTORY, 1): (0.7, 5)})
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        assert np.argmax(row_of(mu, EMPTY_HISTORY)) == 1

    def test_repeated_improvement_converges_to_argmax(self):
        q = table_of({(EMPTY_HISTORY, 0): (0.2, 5),
                      (EMPTY_HISTORY, 1): (0.8, 5)}, n_actions=2)
        mu = uniform_policy(2)
        for _ in range(60):
            mu = improve_policy(mu, q, greediness=0.5)
        assert row_of(mu, EMPTY_HISTORY)[1] == pytest.approx(1.0, abs=1e-9)

    def test_rows_stay_normalized_without_dummy(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, _ = evaluate_policy(uniform_policy(3), 30, QTable(), sampler,
                               history_weight=0.6, master_seed=6)
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        assert mu.probs.shape == (len(q.index), 3)
        for row in mu.probs:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert (row >= 0).all()

    def test_rows_out_of_table_order_rejected(self):
        q = table_of({(((0, 1, 1),), 0): (0.5, 2), (EMPTY_HISTORY, 1): (0.5, 2)})
        mu = policy_from_rows({EMPTY_HISTORY: [0.2, 0.3, 0.5]}, 3)
        with pytest.raises(ValueError, match="first rows of the table"):
            improve_policy(mu, q, greediness=0.5)


class TestDeterminize:
    def test_argmax_row(self):
        mu = policy_from_rows({EMPTY_HISTORY: [0.2, 0.5, 0.3]}, 3)
        det = determinize(mu)
        assert det.deterministic
        assert det.actions == [1]
        assert det.best_action(EMPTY_HISTORY) == 1

    def test_tie_breaks_to_lowest_index(self):
        mu = policy_from_rows({EMPTY_HISTORY: [0.5, 0.5, 0.0]}, 3)
        assert determinize(mu).best_action(EMPTY_HISTORY) == 0

    def test_unseen_state_uses_default_rule(self):
        det = determinize(uniform_policy(3))
        assert det.best_action(((1, 2, 2),)) == 0

    def test_argmax_invariant_under_rescaling(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            row = rng.uniform(0.01, 1.0, size=4)
            row /= row.sum()
            scaled = row * rng.uniform(0.1, 7.0)
            scaled /= scaled.sum()
            a = determinize(policy_from_rows({EMPTY_HISTORY: row}, 4))
            b = determinize(policy_from_rows({EMPTY_HISTORY: scaled}, 4))
            assert a.best_action(EMPTY_HISTORY) == b.best_action(EMPTY_HISTORY)


class TestPairOracle:
    """The state-indexed tables against the pair-keyed forms in oracles.py,
    compared with ==."""

    OUTCOMES = [(0, 1), (1, 1), (1, 2), (2, 4), (3, 4), (0, 3), (2, 3), (4, 6)]

    def assert_matches(self, q, mu, det, entries, rows):
        assert pairs_of(q) == entries
        assert q.q_pairs == len(entries)
        assert mu.index is q.index and det.index is q.index
        assert set(mu.index) == set(rows)
        for state, row in rows.items():
            assert (row_of(mu, state) == row).all()
        actions = determinize_rows(rows)
        assert {state: det.actions[i] for state, i in det.index.items()} == actions

    @pytest.mark.parametrize("seed", range(6))
    def test_random_count_streams(self, seed):
        rng = np.random.default_rng(seed)
        n_actions = 2 + seed % 3
        h, g = 0.6, 0.3 + 0.1 * (seed % 4)
        pool = list({tuple((int(rng.integers(n_actions)), int(rng.integers(1, 4)),
                            int(rng.integers(1, 4))) for _ in range(int(rng.integers(4))))
                     for _ in range(40)})
        q, mu = QTable(), uniform_policy(n_actions)
        entries, rows = {}, {}
        kinds = {"first visit": 0, "carried over": 0, "blended": 0, "tie": 0}
        for _ in range(8):
            counts = {}
            for k in rng.choice(len(pool), size=int(rng.integers(1, 12)), replace=False):
                for a in range(n_actions):
                    if rng.random() < 0.6:
                        counts[(pool[k], a)] = self.OUTCOMES[int(rng.integers(len(self.OUTCOMES)))]
            kinds["first visit"] += sum(key not in entries for key in counts)
            kinds["blended"] += sum(key in entries for key in counts)
            kinds["carried over"] += sum(key not in counts for key in entries)
            q = merge_counts(q, counts, h, n_actions)
            mu = improve_policy(mu, q, g)
            det = determinize(mu)
            entries = merged_pairs(entries, counts, h)
            rows = improve_rows(rows, n_actions, entries, g)
            self.assert_matches(q, mu, det, entries, rows)
            best = q.estimate.max(axis=1, keepdims=True)
            kinds["tie"] += int(((q.estimate == best).sum(axis=1) > 1).sum())
        assert min(kinds.values()) > 0, kinds
        unseen = [state for state in pool if state not in q.index]
        assert unseen
        for state in unseen:
            assert det.best_action(state) == 0

    def test_evaluate_policy_rounds(self, demo_params, demo_noise):
        env = simple_env([("a", (0.8, -1.2, 1.6, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))])
        spec = to_sequential(parse_formula("!u U[<=5] a"), "u")
        sampler = PathSampler(env, spec, demo_params, demo_noise, 3)
        q, mu = QTable(), uniform_policy(3)
        entries, rows = {}, {}
        for round_index in range(1, 4):
            results = [(path.state, path.satisfied) for path in (
                sampler.sample_path(mu, episode_rng(31, STREAM_POLICY_EVAL, round_index, i))
                for i in range(40))]
            q, n_sat = evaluate_policy(mu, 40, q, sampler, history_weight=0.6,
                                       master_seed=31, round_index=round_index)
            assert n_sat == sum(sat for _, sat in results)
            mu = improve_policy(mu, q, 0.6)
            entries = merged_pairs(entries, pair_counts(results), 0.6)
            rows = improve_rows(rows, 3, entries, 0.6)
            self.assert_matches(q, mu, determinize(mu), entries, rows)
        assert 0 < n_sat < 40


def bernoulli_draw(p, seed):
    rng = np.random.default_rng(seed)

    def draw(start, count):
        return [bool(rng.random() < p) for _ in range(count)]

    return draw


class TestBieEstimate:
    def test_always_true_stops_at_oracle_count(self):
        expected = all_success_stop_count(1.0, 1.0, 0.05, 0.95)
        result = bie_estimate(lambda s, c: [True] * c, 0.05, 0.95, 1.0, 1.0)
        assert result.n == expected
        assert result.successes == result.n
        assert result.coverage >= 0.95
        assert result.hi == 1.0

    def test_always_false_symmetric(self):
        expected = all_success_stop_count(1.0, 1.0, 0.05, 0.95)
        result = bie_estimate(lambda s, c: [False] * c, 0.05, 0.95, 1.0, 1.0)
        assert result.n == expected
        assert result.lo == 0.0

    def test_posterior_mean_formula(self):
        p_hat, lo, hi, cov = posterior_interval_coverage(900, 1000, 1.0, 1.0, 0.05)
        assert p_hat == pytest.approx(901 / 1002)
        assert lo == pytest.approx(901 / 1002 - 0.05)
        assert 0.0 < cov <= 1.0

    def test_estimate_strictly_inside_unit_interval(self):
        r1 = bie_estimate(lambda s, c: [True] * c, 0.05, 0.95, 1.0, 1.0)
        r0 = bie_estimate(lambda s, c: [False] * c, 0.05, 0.95, 1.0, 1.0)
        assert 0.0 < r0.p_hat < r1.p_hat < 1.0

    def test_batch_granularity(self):
        result = bie_estimate(lambda s, c: [True] * c, 0.05, 0.95, 1.0, 1.0,
                              batch_size=7)
        assert result.n % 7 == 0
        sequential = bie_estimate(lambda s, c: [True] * c, 0.05, 0.95, 1.0, 1.0)
        assert result.n >= sequential.n

    def test_quick_calibration(self):
        hits = 0
        runs = 60
        for i in range(runs):
            r = bie_estimate(bernoulli_draw(0.7, 1000 + i), 0.05, 0.95, 1.0, 1.0)
            hits += r.lo <= 0.7 <= r.hi
        assert hits / runs >= 0.85

    def test_parameter_validation(self):
        draw = lambda s, c: [True] * c
        with pytest.raises(ValueError):
            bie_estimate(draw, 0.6, 0.95, 1.0, 1.0)
        with pytest.raises(ValueError):
            bie_estimate(draw, 0.05, 0.4, 1.0, 1.0)
        with pytest.raises(ValueError):
            bie_estimate(draw, 0.05, 0.95, 0.0, 1.0)

    def test_max_samples_guard(self):
        with pytest.raises(RuntimeError):
            bie_estimate(bernoulli_draw(0.5, 1), 0.01, 0.99, 1.0, 1.0,
                         max_samples=10)


class TestSynthesize:
    def test_trivially_satisfiable_mission(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        result = synthesize(env, formula, demo_params, zero_noise,
                            episodes_per_round=40, greediness=0.6, history_weight=0.6,
                            delta=0.05, confidence=0.95, prior_alpha=1.0,
                            prior_beta=1.0, stop_radius=0.05, master_seed=3)
        assert result.converged
        assert len(result.rounds) == 2
        assert result.estimate.p_hat >= 1 - 0.05
        assert result.horizon == 2

    def test_unsatisfiable_mission(self, hard_setup, demo_params, zero_noise):
        env, formula, _ = hard_setup
        result = synthesize(env, formula, demo_params, zero_noise,
                            episodes_per_round=40, greediness=0.6, history_weight=0.6,
                            delta=0.05, confidence=0.95, prior_alpha=1.0,
                            prior_beta=1.0, stop_radius=0.05, master_seed=3)
        assert result.estimate.p_hat <= 0.05

    def test_stored_state_count_bounded(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        n, max_rounds = 25, 3
        result = synthesize(env, formula, demo_params, zero_noise,
                            episodes_per_round=n, greediness=0.6, history_weight=0.6,
                            delta=0.05, confidence=0.95, prior_alpha=1.0,
                            prior_beta=1.0, stop_radius=0.05, master_seed=4,
                            max_rounds=max_rounds)
        horizon = result.horizon
        assert len(result.qtable.index) <= n * horizon * len(result.rounds)

    def test_audit_records_round_sequence(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        result = synthesize(env, formula, demo_params, zero_noise,
                            episodes_per_round=30, greediness=0.6, history_weight=0.6,
                            delta=0.05, confidence=0.95, prior_alpha=1.0,
                            prior_beta=1.0, stop_radius=0.05, master_seed=8)
        assert [r.round_index for r in result.rounds] == list(
            range(1, len(result.rounds) + 1))
        assert result.rounds[0].change_from_previous is None
        assert all(r.change_from_previous is not None for r in result.rounds[1:])


class TestControlStrategy:
    def test_initial_action_from_policy(self):
        pol = Policy(3, {EMPTY_HISTORY: 0}, actions=[2])
        assert pol.best_action(EMPTY_HISTORY) == 2

    def test_trained_history_lookup(self):
        key = ((1, 2, 2),)
        pol = Policy(3, {key: 0}, actions=[1])
        assert pol.best_action(key) == 1

    def test_unseen_history_default(self):
        pol = Policy(3, {}, actions=[])
        assert pol.best_action(((2, 1, 1), (0, 3, 3))) == 0


class TestPolicyEquality:
    """Policies compare by action count, index, probability matrix (element
    by element) and action list."""

    INDEX = {EMPTY_HISTORY: 0, ((1, 2, 2),): 1}

    def stochastic(self, probs=((0.2, 0.5, 0.3), (1 / 3, 1 / 3, 1 / 3))):
        return Policy(3, dict(self.INDEX), probs=np.array(probs))

    def test_stochastic_pairs(self):
        assert uniform_policy(3) == uniform_policy(3)
        assert uniform_policy(3) != uniform_policy(2)
        assert self.stochastic() == self.stochastic()
        assert self.stochastic() != self.stochastic(((0.2, 0.5, 0.3), (0.3, 0.4, 0.3)))
        other = self.stochastic()
        other.index = {EMPTY_HISTORY: 0, ((1, 2, 3),): 1}
        assert self.stochastic() != other
        assert self.stochastic() != Policy(3, dict(self.INDEX), probs=np.empty((0, 3)))

    def test_deterministic_pairs(self):
        assert Policy(3, dict(self.INDEX), actions=[2, 0]) == \
            Policy(3, dict(self.INDEX), actions=[2, 0])
        assert Policy(3, dict(self.INDEX), actions=[2, 0]) != \
            Policy(3, dict(self.INDEX), actions=[2, 1])
        assert Policy(3, dict(self.INDEX), actions=[2, 0]) != \
            Policy(4, dict(self.INDEX), actions=[2, 0])

    def test_mismatched_pairs(self):
        policy = self.stochastic()
        assert policy != determinize(policy)
        assert determinize(policy) != policy
        assert uniform_policy(3) != Policy(3, {}, actions=[])
        assert policy != "policy"

    def test_validation_task_holding_a_stochastic_policy(self, easy_setup, demo_params,
                                                         zero_noise):
        env, _, spec, _ = easy_setup

        def task(policy):
            return _TrueSystemTask(env, spec, demo_params, zero_noise, policy, 2, 5)

        assert task(self.stochastic()) == task(self.stochastic())
        assert task(self.stochastic()) != task(uniform_policy(3))


class TestValidateTrueSystem:
    def test_zero_noise_satisfying_policy(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        pol = Policy(3, {}, actions=[])
        result = validate_true_system(pol, env, formula, demo_params, zero_noise,
                                      delta=0.05, confidence=0.95, prior_alpha=1.0,
                                      prior_beta=1.0, master_seed=10)
        assert result.p_hat >= 1 - 0.05

    def test_same_seed_reproduces(self, easy_setup, demo_params, demo_noise):
        env, formula, _, _ = easy_setup
        pol = Policy(3, {}, actions=[])
        kwargs = dict(delta=0.05, confidence=0.95, prior_alpha=1.0,
                      prior_beta=1.0, master_seed=11)
        a = validate_true_system(pol, env, formula, demo_params, demo_noise, **kwargs)
        b = validate_true_system(pol, env, formula, demo_params, demo_noise, **kwargs)
        assert a == b

    def test_episode_history_matches_measurements(self, easy_setup, demo_params,
                                                  demo_noise):
        env, formula, spec, _ = easy_setup
        pol = uniform_policy(3)
        traj, history, _ = simulate_true_system(
            pol, env, spec, demo_params, demo_noise, 4, episode_rng(12, 2, 0, 0))
        assert len(history) == 4 and len(traj.stages) == 4
        for (a, j_r, j_l), st in zip(history, traj.stages):
            u_r, u_l = demo_params.actions[a]
            lo, hi = demo_noise.right.interval(j_r)
            assert u_r + lo <= st.w_r <= u_r + hi
            lo, hi = demo_noise.left.interval(j_l)
            assert u_l + lo <= st.w_l <= u_l + hi


    def test_one_draw_matches_four_scalar_draws_per_stage(self, easy_setup, demo_params):
        env, _, spec, _ = easy_setup
        nm = NoiseModel.symmetric(-0.01, 0.005, 3, (0.2, 0.5, 0.3))
        pol = Policy(3, {EMPTY_HISTORY: 0}, actions=[2])
        for i in range(20):
            traj, history, _ = simulate_true_system(
                pol, env, spec, demo_params, nm, 4, episode_rng(13, 2, 0, i))
            rng = episode_rng(13, 2, 0, i)
            for (a, j_r, j_l), st in zip(history, traj.stages):
                u_r, u_l = demo_params.actions[a]
                assert j_r == tile_by_cumsum(nm.right, rng.random())
                lo, hi = nm.right.interval(j_r)
                assert st.w_r == u_r + (lo + rng.random() * (hi - lo))
                assert j_l == tile_by_cumsum(nm.left, rng.random())
                lo, hi = nm.left.interval(j_l)
                assert st.w_l == u_l + (lo + rng.random() * (hi - lo))
            assert [a for a, _, _ in history] == [2, 0, 0, 0]


class _CountedTask:
    """Squares episode indices and counts how often this process pickles it."""

    pickles = 0

    def run(self, index: int) -> int:
        return index * index

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


class TestParallelism:
    SYNTH = dict(episodes_per_round=40, greediness=0.6, history_weight=0.6,
                 delta=0.1, confidence=0.8, prior_alpha=1.0, prior_beta=1.0,
                 stop_radius=0.2, master_seed=13, max_rounds=3)
    # Wide wheel noise and a goal edge that straight runs reach about 85% of
    # the time: verdicts are mixed, so a mismatched episode key would show.
    MIXED_ENV = [("a", (0.9, -1.2, 2.0, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))]
    WIDE_NOISE = NoiseModel.symmetric(-0.45, 0.3, 3, (0.25, 0.5, 0.25))

    def assert_same_synthesis(self, regions, params, nm, batch_size):
        env = simple_env(regions)
        formula = parse_formula("!u U[<=5] a")
        one, two = (synthesize(env, formula, params, nm, workers=w,
                               batch_size=batch_size, **self.SYNTH) for w in (1, 2))
        assert one.estimate == two.estimate
        assert one.rounds == two.rounds
        assert list(one.qtable.index.items()) == list(two.qtable.index.items())
        assert np.array_equal(one.qtable.estimate, two.qtable.estimate)
        assert np.array_equal(one.qtable.visits, two.qtable.visits)
        assert list(one.policy.index.items()) == list(two.policy.index.items())
        assert one.policy.actions == two.policy.actions
        return one

    def test_worker_count_does_not_change_results(self, demo_params, demo_noise):
        self.assert_same_synthesis([("a", (0.8, -1.2, 1.6, 1.2)),
                                    ("u", (3.0, 2.0, 4.0, 3.0))],
                                   demo_params, demo_noise, batch_size=1)

    def test_worker_count_does_not_change_batched_results(self, demo_params):
        result = self.assert_same_synthesis(self.MIXED_ENV, demo_params,
                                            self.WIDE_NOISE, batch_size=4)
        assert any(0 < r.successes < r.n for r in result.rounds)
        assert any(r.n > 4 for r in result.rounds)

    def test_worker_count_does_not_change_validation(self, demo_params):
        env = simple_env(self.MIXED_ENV)
        formula = parse_formula("!u U[<=5] a")
        straight = Policy(3, {EMPTY_HISTORY: 0}, actions=[1])
        kwargs = dict(delta=0.1, confidence=0.8, prior_alpha=1.0, prior_beta=1.0,
                      master_seed=17, batch_size=4)
        one, two = (validate_true_system(straight, env, formula, demo_params,
                                         self.WIDE_NOISE, workers=w, **kwargs)
                    for w in (1, 2))
        assert one == two
        assert 0 < one.successes < one.n and one.n > 4

    def test_task_reaches_each_worker_at_most_once(self):
        task = _CountedTask()
        _CountedTask.pickles = 0
        with _episode_pool(task, 2) as pool:
            draws = [_map_episodes(task, range(4 * k, 4 * k + 4), 2, pool)
                     for k in range(5)]
        assert draws == [[i * i for i in range(4 * k, 4 * k + 4)] for k in range(5)]
        assert _CountedTask.pickles <= 2

    @pytest.mark.parametrize("affinity, cpu_count, size", [
        ({0, 1, 2}, None, 3),  # sched_getaffinity decides, not cpu_count
        (None, 2, 2),          # no affinity on this platform: cpu_count
        (None, None, 1),       # neither: one CPU, so no pool
    ])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, affinity, cpu_count, size):
        opened, chunked = [], []

        class InlineExecutor:
            """Runs chunks in this process and records the pool it was asked for."""

            def __init__(self, max_workers, initializer, initargs):
                opened.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunked.append(len(chunks))
                return map(fn, chunks)

        monkeypatch.setattr(synthesis, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(synthesis, "_WORKER_TASK", None)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        task = _CountedTask()
        with _episode_pool(task, 200) as pool:
            draw = _map_episodes(task, range(10), 200, pool)
        assert draw == [i * i for i in range(10)]
        assert opened == ([size] if size > 1 else [])
        assert chunked == ([size] if size > 1 else [])


def test_theorem_bound_helper():
    assert theorem_bound_holds(0.664, 0.847, 0.05)
    assert theorem_bound_holds(0.5, 0.41, 0.05)
    assert not theorem_bound_holds(0.5, 0.39, 0.05)
