import numpy as np
import pytest

from bltlsynth.bltl import parse_formula, to_sequential
from bltlsynth.dynamics import NoiseModel
from bltlsynth.mdp import EMPTY_HISTORY, PathSampler, episode_rng
from bltlsynth.synthesis import (BieResult, Policy, QEntry, QTable, bie_estimate,
                                 control_strategy_action, determinize,
                                 evaluate_policy, improve_policy,
                                 posterior_interval_coverage, simulate_true_system,
                                 synthesize, theorem_bound_holds, uniform_policy,
                                 validate_true_system)
from bltlsynth.synthesis import _episode_pool, _map_episodes

from conftest import simple_env
from oracles import all_success_stop_count


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


class TestQTable:
    def test_fresh_pair_takes_plain_ratio(self):
        q = QTable().merged({(EMPTY_HISTORY, 1): (4, 10)}, history_weight=0.6)
        assert q.entries[(EMPTY_HISTORY, 1)].estimate == pytest.approx(0.4)
        assert q.entries[(EMPTY_HISTORY, 1)].visits == 10

    def test_smoothing_blends_old_and_fresh(self):
        q0 = QTable({(EMPTY_HISTORY, 0): QEntry(0.5, 10)})
        q1 = q0.merged({(EMPTY_HISTORY, 0): (9, 10)}, history_weight=0.6)
        assert q1.entries[(EMPTY_HISTORY, 0)].estimate == pytest.approx(0.66)
        assert q1.entries[(EMPTY_HISTORY, 0)].visits == 20

    def test_untouched_pairs_carry_over(self):
        q0 = QTable({(EMPTY_HISTORY, 0): QEntry(0.5, 10)})
        q1 = q0.merged({(EMPTY_HISTORY, 1): (1, 1)}, history_weight=0.6)
        assert q1.entries[(EMPTY_HISTORY, 0)].estimate == 0.5
        assert len(q1.entries) == 2


class TestEvaluatePolicy:
    def test_all_satisfying_paths_give_unit_estimates(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, n_sat = evaluate_policy(uniform_policy(3), 20, QTable(), sampler,
                                   history_weight=0.6, master_seed=5)
        assert n_sat == 20
        assert all(e.estimate == 1.0 for e in q.entries.values())
        assert sum(e.visits for e in q.entries.values()) == 20 * 2

    def test_episode_count_validated(self, easy_setup):
        _, _, _, sampler = easy_setup
        with pytest.raises(ValueError):
            evaluate_policy(uniform_policy(3), 0, QTable(), sampler,
                            history_weight=0.6, master_seed=5)


class TestImprovePolicy:
    def test_reinforces_best_action(self):
        q = QTable({(EMPTY_HISTORY, 0): QEntry(0.1, 5),
                    (EMPTY_HISTORY, 1): QEntry(0.9, 5),
                    (EMPTY_HISTORY, 2): QEntry(0.4, 5)})
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        row = mu.probs(EMPTY_HISTORY)
        assert row[1] == pytest.approx(0.4 / 3 + 0.6)
        assert row[0] == pytest.approx(0.4 / 3)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_update_is_bounded_by_greediness(self):
        q = QTable({(EMPTY_HISTORY, 2): QEntry(1.0, 1)})
        g = 0.05
        mu = improve_policy(uniform_policy(3), q, greediness=g)
        assert np.max(np.abs(mu.probs(EMPTY_HISTORY) - 1 / 3)) <= g + 1e-12

    def test_ties_break_to_lowest_action(self):
        q = QTable({(EMPTY_HISTORY, 2): QEntry(0.7, 5),
                    (EMPTY_HISTORY, 1): QEntry(0.7, 5)})
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        assert np.argmax(mu.probs(EMPTY_HISTORY)) == 1

    def test_repeated_improvement_converges_to_argmax(self):
        q = QTable({(EMPTY_HISTORY, 0): QEntry(0.2, 5),
                    (EMPTY_HISTORY, 1): QEntry(0.8, 5)})
        mu = uniform_policy(2)
        for _ in range(60):
            mu = improve_policy(mu, q, greediness=0.5)
        assert mu.probs(EMPTY_HISTORY)[1] == pytest.approx(1.0, abs=1e-9)

    def test_rows_stay_normalized_without_dummy(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, _ = evaluate_policy(uniform_policy(3), 30, QTable(), sampler,
                               history_weight=0.6, master_seed=6)
        mu = improve_policy(uniform_policy(3), q, greediness=0.6)
        for row in mu.rows.values():
            assert len(row) == 3
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert (row >= 0).all()


class TestDeterminize:
    def test_argmax_row(self):
        mu = Policy(n_actions=3, rows={EMPTY_HISTORY: np.array([0.2, 0.5, 0.3])})
        det = determinize(mu)
        assert det.deterministic
        assert list(det.rows[EMPTY_HISTORY]) == [0.0, 1.0, 0.0]

    def test_tie_breaks_to_lowest_index(self):
        mu = Policy(n_actions=3, rows={EMPTY_HISTORY: np.array([0.5, 0.5, 0.0])})
        assert determinize(mu).best_action(EMPTY_HISTORY) == 0

    def test_unseen_state_uses_default_rule(self):
        det = determinize(uniform_policy(3))
        assert det.best_action(((1, 2, 2),)) == 0

    def test_from_qtable(self):
        q = QTable({(EMPTY_HISTORY, 1): QEntry(0.9, 3),
                    (EMPTY_HISTORY, 0): QEntry(0.2, 3)})
        det = determinize(q, n_actions=3)
        assert det.best_action(EMPTY_HISTORY) == 1

    def test_argmax_invariant_under_rescaling(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            row = rng.uniform(0.01, 1.0, size=4)
            row /= row.sum()
            scaled = row * rng.uniform(0.1, 7.0)
            scaled /= scaled.sum()
            a = determinize(Policy(n_actions=4, rows={EMPTY_HISTORY: row}))
            b = determinize(Policy(n_actions=4, rows={EMPTY_HISTORY: scaled}))
            assert a.best_action(EMPTY_HISTORY) == b.best_action(EMPTY_HISTORY)


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
        assert len(result.qtable.states()) <= n * horizon * len(result.rounds)

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
        pol = Policy(n_actions=3, rows={EMPTY_HISTORY: np.array([0.0, 0.0, 1.0])},
                     deterministic=True)
        assert control_strategy_action(pol, EMPTY_HISTORY) == 2

    def test_trained_history_lookup(self):
        key = ((1, 2, 2),)
        pol = Policy(n_actions=3, rows={key: np.array([0.0, 1.0, 0.0])},
                     deterministic=True)
        assert control_strategy_action(pol, key) == 1

    def test_unseen_history_default(self):
        pol = Policy(n_actions=3, rows={}, deterministic=True)
        assert control_strategy_action(pol, ((2, 1, 1), (0, 3, 3))) == 0


class TestValidateTrueSystem:
    def test_zero_noise_satisfying_policy(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        pol = Policy(n_actions=3, rows={}, deterministic=True)
        result = validate_true_system(pol, env, formula, demo_params, zero_noise,
                                      delta=0.05, confidence=0.95, prior_alpha=1.0,
                                      prior_beta=1.0, master_seed=10)
        assert result.p_hat >= 1 - 0.05

    def test_same_seed_reproduces(self, easy_setup, demo_params, demo_noise):
        env, formula, _, _ = easy_setup
        pol = Policy(n_actions=3, rows={}, deterministic=True)
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
        assert one.qtable.entries == two.qtable.entries
        assert list(one.policy.rows) == list(two.policy.rows)
        for state, row in one.policy.rows.items():
            assert np.array_equal(row, two.policy.rows[state])
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
        straight = Policy(n_actions=3, rows={EMPTY_HISTORY: np.array([0.0, 1.0, 0.0])},
                          deterministic=True)
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


def test_theorem_bound_helper():
    assert theorem_bound_holds(0.664, 0.847, 0.05)
    assert theorem_bound_holds(0.5, 0.41, 0.05)
    assert not theorem_bound_holds(0.5, 0.39, 0.05)
