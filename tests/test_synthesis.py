import gzip
import multiprocessing
import os
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bltlsynth import synthesis
from bltlsynth.bltl import horizon_stages, parse_formula, to_sequential
from bltlsynth.cli import load_policy_file
from bltlsynth.mdp import EMPTY_HISTORY, STREAM_POLICY_EVAL, PathSampler
from bltlsynth.synthesis import (Policy, QTable, beta_cdf, bie_estimate,
                                 coverage_upper_bound, determinize,
                                 evaluate_policy, improve_policy,
                                 posterior_interval_coverage, simulate_true_system,
                                 synthesize, theorem_bound_holds, uniform_policy,
                                 validate_true_system)
from bltlsynth.synthesis import _TrueSystemTask, _map_episodes, _worker_set

from conftest import TEST_ALGORITHM, policy_from_rows, simple_env, symmetric_noise
from oracles import (all_success_stop_count, beta_cdf_reference, bie_estimate_reference,
                     determinize_rows, episode_rng, generator_drawing, improve_rows,
                     merged_pairs, pair_counts, replay_decision, sample_history_scalar,
                     tile_by_cumsum)

PINNED_POLICY = Path(__file__).resolve().parents[1] / "bench" / "reference" / "policy.json.gz"


def table_of(pairs, n_actions=3):
    """QTable holding an estimate per (history, action) pair, and the
    histories of its rows in row order."""
    histories = list(dict.fromkeys(state for state, _ in pairs))
    row = {state: i for i, state in enumerate(histories)}
    estimate = np.full((len(histories), n_actions), -np.inf)
    for (state, action), e in pairs.items():
        estimate[row[state], action] = e
    return QTable(estimate), histories


def pairs_of(q, histories):
    """The estimate per visited (history, action) pair of a QTable whose rows
    hold ``histories``, in row order: the finite entries."""
    return {(histories[i], a): float(q.estimate[i, a])
            for i, a in zip(*np.nonzero(np.isfinite(q.estimate)))}


def merge_counts(q, histories, counts, history_weight, n_actions=3):
    """Fold (satisfied, visits) per (history, action) pair into a QTable whose
    rows hold ``histories``, as ``evaluate_policy`` does: a history with no
    row gets one after them.  Returns the new table and the histories of its
    rows."""
    histories = list(dict.fromkeys([*histories, *(state for state, _ in counts)]))
    row = {state: i for i, state in enumerate(histories)}
    sat = np.zeros((len(histories), n_actions), dtype=np.int64)
    visits = np.zeros_like(sat)
    for (state, action), (s, v) in counts.items():
        sat[row[state], action] = s
        visits[row[state], action] = v
    return q.merged(sat, visits, history_weight), histories


def row_of(policy, state):
    return policy.probs[policy.index[state]]


def improved(policy, q, histories, greediness):
    """``improve_policy``'s step toward the argmax column of q, whose rows hold
    ``histories`` and extend the policy's, as a synthesis round takes it."""
    return improve_policy(policy, histories[len(policy.index):],
                          q.estimate.argmax(axis=1), greediness)


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

    @pytest.mark.parametrize("last", [0.3999999999999997, 0.3999999999999998])
    def test_draw_above_a_running_sum_short_of_one(self, last):
        # the running sums end below 1, so a draw above the last one is past
        # every undivided sum: dividing by the last sum keeps it in range
        row = np.array([0.3, 0.3, last])
        policy = Policy(3, {EMPTY_HISTORY: 0}, probs=row[None])
        total = sum(row.tolist())
        assert total < 1.0
        draws = []
        u = np.nextafter(1.0, 0.0)
        while u > total:
            draws.append(float(u))
            u = np.nextafter(u, 0.0)
        assert draws
        for u in draws:
            assert policy.sample_action(EMPTY_HISTORY, u) == 2
            assert int(generator_drawing(u).choice(3, p=row)) == 2, u

    def test_first_greedy_step_from_uniform(self):
        # the convex step at greediness 0.6 from the uniform row gives
        # [0.7333..., 0.1333..., 0.1333...], whose running sums end at
        # 1 - 2**-53: that draw is on the last undivided sum, past which
        # bisecting would give action 3, out of range; choice's recipe gives 2
        policy = improve_policy(uniform_policy(3), [EMPTY_HISTORY], np.array([0]), 0.6)
        row = policy.probs[policy.index[EMPTY_HISTORY]]
        u = 1.0 - 2.0 ** -53
        assert np.cumsum(row)[-1] == u
        assert int(generator_drawing(u).choice(3, p=row)) == 2
        assert policy.sample_action(EMPTY_HISTORY, u) == 2

    def test_unseen_state_draws_uniformly(self):
        policy = uniform_policy(3)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(500):
            assert policy.sample_action(((1, 2, 2),), a.random()) == \
                int(b.choice(3, p=np.full(3, 1.0 / 3.0)))


    def test_rows_and_default_row_interleaved(self):
        # the CDF rows a policy keeps after a row's first draw give choice's
        # action on every later draw, whichever rows came in between
        rng = np.random.default_rng(11)
        rows = {((a, 1, 1),): rng.dirichlet(np.ones(3)) for a in range(3)}
        rows[((0, 2, 2),)] = np.array([0.0, 1.0, 0.0])
        policy = policy_from_rows(rows, 3)
        states = [*rows, EMPTY_HISTORY, ((2, 3, 3),)]
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(3000):
            state = states[int(rng.integers(len(states)))]
            row = rows.get(state, np.full(3, 1.0 / 3.0))
            assert policy.sample_action(state, a.random()) == int(b.choice(3, p=row))
        assert set(policy._cdf) == {0, 1, 2, 3, None}


class TestQTable:
    def test_fresh_pair_takes_plain_ratio(self):
        q, histories = merge_counts(QTable(), [], {(EMPTY_HISTORY, 1): (4, 10)},
                                    history_weight=0.6)
        assert pairs_of(q, histories) == {(EMPTY_HISTORY, 1): pytest.approx(0.4)}

    def test_smoothing_blends_old_and_fresh(self):
        q0, histories = table_of({(EMPTY_HISTORY, 0): 0.5})
        q1, histories = merge_counts(q0, histories, {(EMPTY_HISTORY, 0): (9, 10)},
                                     history_weight=0.6)
        assert pairs_of(q1, histories) == {(EMPTY_HISTORY, 0): pytest.approx(0.66)}

    def test_untouched_pairs_carry_over(self):
        q0, histories = table_of({(EMPTY_HISTORY, 0): 0.5})
        q1, histories = merge_counts(q0, histories, {(EMPTY_HISTORY, 1): (1, 1)},
                                     history_weight=0.6)
        assert pairs_of(q1, histories)[(EMPTY_HISTORY, 0)] == 0.5
        assert q1.q_pairs == 2

    def test_unvisited_pairs_never_win_an_argmax(self):
        q, _ = merge_counts(QTable(), [], {(EMPTY_HISTORY, 2): (0, 4),
                                           (((1, 1, 1),), 0): (1, 2)}, history_weight=0.6)
        assert q.estimate.tolist() == [[-np.inf, -np.inf, 0.0], [0.5, -np.inf, -np.inf]]
        assert q.estimate.argmax(axis=1).tolist() == [2, 0]

    def test_merged_rejects_a_longer_table(self):
        q, _ = table_of({(EMPTY_HISTORY, 0): 0.5, (((1, 1, 1),), 2): 1.0})
        counts = np.ones((1, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="2 rows cannot take counts on 1"):
            q.merged(counts, counts, history_weight=0.6)


class TestEvaluatePolicy:
    def test_all_satisfying_paths_give_unit_estimates(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, n_sat, new = evaluate_policy(uniform_policy(3), 20, QTable(), sampler,
                                        history_weight=0.6, master_seed=5)
        assert n_sat == 20
        assert (q.estimate[np.isfinite(q.estimate)] == 1.0).all()
        # every verdict is fixed at stage 1, so only the empty history has a row
        assert new == [EMPTY_HISTORY] and q.estimate.shape == (1, 3)

    def test_a_call_of_its_own_opens_a_set_of_workers(self, demo_params, demo_noise,
                                                      two_cpus, process_starts):
        # the benchmark's pool probe times this form at 1 and 2 workers
        env = simple_env([("a", (0.8, -1.2, 1.6, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))])
        spec = to_sequential(parse_formula("!u U[<=5] a"), "u")
        sampler = PathSampler(env, spec, demo_params, demo_noise, 3)
        (q1, n1, new1), (q2, n2, new2) = (
            evaluate_policy(uniform_policy(3), 40, QTable(), sampler, history_weight=0.6,
                            master_seed=31, round_index=1, workers=w) for w in (1, 2))
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []
        assert n1 == n2 and 0 < n1 < 40
        assert new1 == new2
        assert np.array_equal(q1.estimate, q2.estimate)

    @pytest.mark.skipif(not PINNED_POLICY.exists(), reason="pinned benchmark policy not present")
    def test_the_pool_probes_call(self, demo_config, two_cpus, process_starts, tmp_path):
        """The benchmark's pool probe: two episodes under the pinned policy,
        from a fresh table, on a set of two workers."""
        cfg = demo_config
        path = tmp_path / "policy.json"
        path.write_bytes(gzip.decompress(PINNED_POLICY.read_bytes()))
        _, policy = load_policy_file(path)
        horizon = horizon_stages(cfg.formula, cfg.params.dt)
        sampler = PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                              cfg.nm, horizon)
        pooled, serial = (evaluate_policy(policy, 2, QTable(), sampler,
                                          history_weight=cfg.algorithm.history_weight,
                                          master_seed=2026, round_index=1, workers=w)
                          for w in (2, 1))
        assert len(process_starts) == 2
        q, n_sat, new = pooled
        assert q.estimate.shape == (len(policy.index) + len(new), len(cfg.params.actions))
        row = {**policy.index, **{h: len(policy.index) + i for i, h in enumerate(new)}}
        assert len(row) == len(q.estimate)
        episodes = []
        for i in range(2):
            history = sample_history_scalar(policy, cfg.nm, horizon,
                                            episode_rng(2026, STREAM_POLICY_EVAL, 1, i))
            verdict, stages = replay_decision(sampler, history)
            episodes.append((history[:stages], verdict))
        assert n_sat == sum(verdict for _, verdict in episodes)
        visited = {(row[history[:k]], step[0])
                   for history, _ in episodes for k, step in enumerate(history)}
        assert set(zip(*np.nonzero(np.isfinite(q.estimate)))) == visited
        assert q.q_pairs == len(visited)
        assert serial[1:] == pooled[1:]
        assert np.array_equal(serial[0].estimate, q.estimate)

    def test_episode_count_validated(self, easy_setup):
        _, _, _, sampler = easy_setup
        with pytest.raises(ValueError):
            evaluate_policy(uniform_policy(3), 0, QTable(), sampler,
                            history_weight=0.6, master_seed=5)


class TestImprovePolicy:
    def test_reinforces_best_action(self):
        q, histories = table_of({(EMPTY_HISTORY, 0): 0.1,
                                 (EMPTY_HISTORY, 1): 0.9,
                                 (EMPTY_HISTORY, 2): 0.4})
        mu = improved(uniform_policy(3), q, histories, greediness=0.6)
        row = row_of(mu, EMPTY_HISTORY)
        assert row[1] == pytest.approx(0.4 / 3 + 0.6)
        assert row[0] == pytest.approx(0.4 / 3)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_update_is_bounded_by_greediness(self):
        q, histories = table_of({(EMPTY_HISTORY, 2): 1.0})
        g = 0.05
        mu = improved(uniform_policy(3), q, histories, greediness=g)
        assert np.max(np.abs(row_of(mu, EMPTY_HISTORY) - 1 / 3)) <= g + 1e-12

    def test_ties_break_to_lowest_action(self):
        q, histories = table_of({(EMPTY_HISTORY, 2): 0.7,
                                 (EMPTY_HISTORY, 1): 0.7})
        mu = improved(uniform_policy(3), q, histories, greediness=0.6)
        assert np.argmax(row_of(mu, EMPTY_HISTORY)) == 1

    def test_repeated_improvement_converges_to_argmax(self):
        q, histories = table_of({(EMPTY_HISTORY, 0): 0.2,
                                 (EMPTY_HISTORY, 1): 0.8}, n_actions=2)
        mu = uniform_policy(2)
        for _ in range(60):
            mu = improved(mu, q, histories, greediness=0.5)
        assert row_of(mu, EMPTY_HISTORY)[1] == pytest.approx(1.0, abs=1e-9)

    def test_rows_stay_normalized_without_dummy(self, easy_setup):
        _, _, _, sampler = easy_setup
        q, _, new = evaluate_policy(uniform_policy(3), 30, QTable(), sampler,
                                    history_weight=0.6, master_seed=6)
        mu = improved(uniform_policy(3), q, new, greediness=0.6)
        assert mu.probs.shape == (len(new), 3)
        for row in mu.probs:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert (row >= 0).all()

    def test_new_histories_extend_a_copy_of_the_index(self):
        mu = policy_from_rows({EMPTY_HISTORY: [0.2, 0.3, 0.5]}, 3)
        new = [((0, 1, 1),), ((2, 1, 1),)]
        nu = improve_policy(mu, new, np.array([2, 0, 1], dtype=np.int8), greediness=0.5)
        assert list(nu.index.items()) == [(EMPTY_HISTORY, 0), (new[0], 1), (new[1], 2)]
        assert nu.probs == pytest.approx(np.array([[0.1, 0.15, 0.75],
                                                   [0.5 + 1 / 6, 1 / 6, 1 / 6],
                                                   [1 / 6, 0.5 + 1 / 6, 1 / 6]]))
        assert mu.index == {EMPTY_HISTORY: 0}

    def test_one_best_action_per_row(self):
        mu = policy_from_rows({EMPTY_HISTORY: [0.2, 0.3, 0.5]}, 3)
        with pytest.raises(ValueError, match="one best action per row"):
            improve_policy(mu, [((0, 1, 1),)], np.array([0]), greediness=0.5)


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
        # the table is on the policy's rows, and its finite entries are
        # exactly the pairs visited so far
        assert len(q.estimate) == len(mu.index) and det.index is mu.index
        pairs = pairs_of(q, list(mu.index))
        assert pairs == {key: estimate for key, (estimate, _) in entries.items()}
        visited = {key for key, (_, visits) in entries.items() if visits > 0}
        assert set(pairs) == visited
        assert q.q_pairs == len(visited)
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
            q, histories = merge_counts(q, list(mu.index), counts, h, n_actions)
            mu = improved(mu, q, histories, g)
            det = determinize(mu)
            entries = merged_pairs(entries, counts, h)
            rows = improve_rows(rows, n_actions, entries, g)
            self.assert_matches(q, mu, det, entries, rows)
            best = q.estimate.max(axis=1, keepdims=True)
            kinds["tie"] += int(((q.estimate == best).sum(axis=1) > 1).sum())
        assert min(kinds.values()) > 0, kinds
        unseen = [state for state in pool if state not in mu.index]
        assert unseen
        for state in unseen:
            assert det.best_action(state) == 0

    def assert_evaluate_policy_rounds(self, demo_params, demo_noise, workers):
        env = simple_env([("a", (0.8, -1.2, 1.6, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))])
        spec = to_sequential(parse_formula("!u U[<=5] a"), "u")
        sampler = PathSampler(env, spec, demo_params, demo_noise, 3)
        q, mu = QTable(), uniform_policy(3)
        entries, rows = {}, {}
        for round_index in range(1, 4):
            results = []
            for i in range(40):
                history = sample_history_scalar(
                    mu, demo_noise, 3, episode_rng(31, STREAM_POLICY_EVAL, round_index, i))
                verdict, stages = replay_decision(sampler, history)
                results.append((history[:stages], verdict))
            q, n_sat, new = evaluate_policy(mu, 40, q, sampler, history_weight=0.6,
                                            master_seed=31, round_index=round_index,
                                            workers=workers)
            assert n_sat == sum(sat for _, sat in results)
            # the prefixes without a row, in the order the episodes reach them
            assert new == list(dict.fromkeys(history[:k] for history, _ in results
                                             for k in range(len(history))
                                             if history[:k] not in mu.index))
            mu = improve_policy(mu, new, q.estimate.argmax(axis=1), 0.6)
            entries = merged_pairs(entries, pair_counts(results), 0.6)
            rows = improve_rows(rows, 3, entries, 0.6)
            self.assert_matches(q, mu, determinize(mu), entries, rows)
        assert 0 < n_sat < 40

    def test_evaluate_policy_rounds(self, demo_params, demo_noise):
        self.assert_evaluate_policy_rounds(demo_params, demo_noise, workers=1)

    def test_pooled_evaluate_policy_rounds(self, demo_params, demo_noise, two_cpus,
                                           process_starts):
        self.assert_evaluate_policy_rounds(demo_params, demo_noise, workers=2)
        assert len(process_starts) == 2 * 3


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
        for prior in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                bie_estimate(draw, 0.05, 0.95, prior, 1.0)
            with pytest.raises(ValueError, match="finite"):
                bie_estimate(draw, 0.05, 0.95, 1.0, prior)


def posterior_shapes():
    """(a, b) of Beta(x+alpha, n-x+beta) posteriors: lopsided and balanced
    (x, n) up to n = 5000, under priors below and above 1."""
    for n in (1, 2, 7, 60, 400, 5000):
        for x in sorted({0, 1, n // 50, n // 4, n // 2, n - 1, n}):
            for alpha, beta in ((0.3, 2.5), (0.5, 0.5), (1.0, 1.0), (1.7, 0.3), (2.5, 1.7)):
                yield x + alpha, n - x + beta


def around_the_mean(a, b):
    """Points at 0, 1 and the posterior mean plus -6..6 standard deviations."""
    mean = a / (a + b)
    sd = (a * b / (a + b + 1.0)) ** 0.5 / (a + b)
    return [0.0, 1.0] + [min(1.0, max(0.0, mean + k * sd)) for k in range(-6, 7)]


class TestBetaCdf:
    def test_matches_scipy_on_grid(self):
        worst = 0.0
        for a, b in posterior_shapes():
            for x in around_the_mean(a, b) + [1e-300, 1e-9, 0.5, 1.0 - 1e-9]:
                worst = max(worst, abs(beta_cdf(x, a, b) - beta_cdf_reference(x, a, b)))
        assert worst < 1e-10

    def test_upper_bound_is_never_below_the_exact_mass(self):
        checked = 0
        for a, b in posterior_shapes():
            if a <= 1.0 or b <= 1.0:
                continue
            points = around_the_mean(a, b)
            for lo in points:
                for hi in points:
                    if lo > hi:
                        continue
                    exact = beta_cdf_reference(hi, a, b) - beta_cdf_reference(lo, a, b)
                    # a bound cut short by ``below`` is a partial tail sum, still a bound
                    for below in (0.0, 0.5, 0.95):
                        assert coverage_upper_bound(a, b, lo, hi, below) >= exact - 1e-12
                    checked += 1
        assert checked > 5000

    def test_exact_mass_where_the_bound_cannot_rule_out(self):
        # (x, n) = (900, 1000) at delta 0.05 is far above 0.95: the exact mass
        for below in (0.0, 0.95):
            p_hat, lo, hi, cov = posterior_interval_coverage(900, 1000, 1.0, 1.0, 0.05, below)
            exact = beta_cdf_reference(hi, 901.0, 101.0) - beta_cdf_reference(lo, 901.0, 101.0)
            assert cov == pytest.approx(exact, abs=1e-10)
        # 9 of 20 is far below: the bound stands in, and says so by lying below
        p_hat, lo, hi, cov = posterior_interval_coverage(9, 20, 1.0, 1.0, 0.05, 0.95)
        exact = beta_cdf_reference(hi, 10.0, 12.0) - beta_cdf_reference(lo, 10.0, 12.0)
        assert exact <= cov < 0.95

    @pytest.mark.parametrize("delta, confidence, alpha, beta, batch_size", [
        (0.05, 0.95, 1.0, 1.0, 1),  # the demo's estimation
        (0.01, 0.95, 1.0, 1.0, 1),  # closed-loop validation
        (0.05, 0.95, 1.0, 1.0, 32),
        (0.1, 0.8, 1.0, 1.0, 1),
        (0.05, 0.99, 0.5, 0.5, 1),
        (0.02, 0.9, 2.5, 0.3, 3)])
    def test_bie_estimate_matches_the_scipy_oracle(self, delta, confidence, alpha, beta,
                                                    batch_size):
        for p in (0.0, 0.03, 0.5, 0.8, 0.97, 1.0):
            for seed in range(4):
                verdicts = list(np.random.default_rng(seed).random(40_000) < p)
                draw = lambda start, count: verdicts[start:start + count]
                got = bie_estimate(draw, delta, confidence, alpha, beta, batch_size)
                n, x, lo, hi, coverage = bie_estimate_reference(
                    draw, delta, confidence, alpha, beta, batch_size)
                assert (got.n, got.successes, got.lo, got.hi) == (n, x, lo, hi)
                assert got.coverage == pytest.approx(coverage, abs=1e-10)


class TestSynthesize:
    def test_trivially_satisfiable_mission(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        result = synthesize(env, formula, demo_params, zero_noise, TEST_ALGORITHM,
                            master_seed=3)
        assert result.converged
        assert len(result.rounds) == 2
        assert result.estimate.p_hat >= 1 - 0.05
        assert result.horizon == 2

    def test_unsatisfiable_mission(self, hard_setup, demo_params, zero_noise):
        env, formula, _ = hard_setup
        result = synthesize(env, formula, demo_params, zero_noise, TEST_ALGORITHM,
                            master_seed=3)
        assert result.estimate.p_hat <= 0.05

    def test_stored_state_count_bounded(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        n, max_rounds = 25, 3
        result = synthesize(env, formula, demo_params, zero_noise,
                            replace(TEST_ALGORITHM, episodes_per_round=n,
                                    max_rounds=max_rounds), master_seed=4)
        horizon = result.horizon
        assert len(result.policy.index) <= n * horizon * len(result.rounds)
        assert len(result.qtable.estimate) == len(result.policy.index)

    def test_audit_records_round_sequence(self, easy_setup, demo_params, zero_noise):
        env, formula, _, _ = easy_setup
        result = synthesize(env, formula, demo_params, zero_noise,
                            replace(TEST_ALGORITHM, episodes_per_round=30), master_seed=8)
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
                                      TEST_ALGORITHM, master_seed=10)
        assert result.p_hat >= 1 - 0.05

    def test_same_seed_reproduces(self, easy_setup, demo_params, demo_noise):
        env, formula, _, _ = easy_setup
        pol = Policy(3, {}, actions=[])
        a, b = (validate_true_system(pol, env, formula, demo_params, demo_noise,
                                     TEST_ALGORITHM, master_seed=11) for _ in range(2))
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
        nm = symmetric_noise(-0.01, 0.005, 3, (0.2, 0.5, 0.3))
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
    """Squares episode indices (plus an offset) and counts how often this
    process pickles it."""

    pickles = 0
    KILL = -100  # the episode index at which a worker kills itself

    def __init__(self, offset: int = 0):
        self.offset = offset

    def run(self, index: int) -> int:
        if index == self.KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        if index < 0:
            raise ValueError(f"episode {index} fails")
        return index * index + self.offset

    def shifted(self, offset: int) -> "_CountedTask":
        return _CountedTask(offset)

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


def _assert_same_round(task, parent):
    """A worker-set update that leaves a synthesis worker's task as it is,
    once its round policy, the determinization its estimation runs under, and
    the stream and round its draws come from equal those of the parent's
    task."""
    assert task.policy == parent.policy
    assert task.chain.policy == parent.chain.policy
    assert task.chain.stream == parent.chain.stream
    assert task.chain.round_index == parent.chain.round_index
    return task


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever this machine has, so a set of two starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def process_starts(monkeypatch):
    """Names of the processes started while the test runs."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(proc):
        started.append(proc.name)
        return start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def usable_set_size(workers):
    """The worker set a command of ``workers`` starts: capped at the usable
    CPUs, and none at all below two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    size = min(workers, cpus)
    return size if size > 1 else 0


class TestParallelism:
    SYNTH = replace(TEST_ALGORITHM, delta=0.1, confidence=0.8, stop_radius=0.2,
                    max_rounds=3)
    # Wide wheel noise and a goal edge that the chain's tubes reach on some
    # histories only: verdicts are mixed, so a mismatched episode key would
    # show.  With the edge at x = 0.8, the tubes of 518 of 2,000 straight
    # seed-1 histories reach the goal, and the seed-13 batch-4 synthesis
    # estimates 13/36, 23/36 and 23/32 over its three rounds.  Straight
    # closed-loop runs reach this goal 99.7% of the time, and validation
    # stops after 8 straight successes at most seeds; with the edge at
    # x = 1.1 they reach it about half the time (1,056 of 2,000 seed-1
    # validation episodes), and the chain's tubes never.
    MIXED_ENV = [("a", (0.8, -1.2, 2.0, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))]
    STRAIGHT_MIXED_ENV = [("a", (1.1, -1.2, 2.0, 1.2)), ("u", (3.0, 2.0, 4.0, 3.0))]
    WIDE_NOISE = symmetric_noise(-0.45, 0.3, 3, (0.25, 0.5, 0.25))
    VALIDATE = replace(TEST_ALGORITHM, delta=0.1, confidence=0.8, batch_size=4)

    def assert_same_synthesis(self, regions, params, nm, batch_size):
        env = simple_env(regions)
        formula = parse_formula("!u U[<=5] a")
        one, two = (synthesize(env, formula, params, nm,
                               replace(self.SYNTH, batch_size=batch_size),
                               master_seed=13, workers=w) for w in (1, 2))
        assert one.estimate == two.estimate
        assert one.rounds == two.rounds
        assert list(one.policy.index.items()) == list(two.policy.index.items())
        assert np.array_equal(one.qtable.estimate, two.qtable.estimate)
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

    def test_workers_hold_the_parents_task_after_every_update(self, demo_params, monkeypatch,
                                                              two_cpus):
        """Each round, the workers get the argmax column of the Q estimates,
        not the ``probs`` matrix, and take the convex step themselves: after
        every update of a pooled synthesis, each worker's task equals the
        parent's, which the parent's own copy of the update made."""
        improved = []
        improve = synthesis.improve_policy

        def recorded(*args):
            improved.append(improve(*args))
            return improved[-1]

        checked = []

        class CheckedWorkers(synthesis._WorkerSet):
            def send(self, update, *args):
                super().send(update, *args)
                if update is synthesis._SynthesisRounds.estimating:
                    best = args[1]
                    assert best.shape == (len(self.task.policy.index),)
                    assert best.dtype.kind == "i"
                    assert self.task.policy is improved[-1]
                if update is not _assert_same_round:
                    assert len(self._conns) == 2
                    super().send(_assert_same_round, self.task)  # to every worker
                    checked.append(update.__name__)

        monkeypatch.setattr(synthesis, "improve_policy", recorded)
        monkeypatch.setattr(synthesis, "_WorkerSet", CheckedWorkers)
        result = synthesize(simple_env(self.MIXED_ENV), parse_formula("!u U[<=5] a"),
                            demo_params, self.WIDE_NOISE, replace(self.SYNTH, batch_size=4),
                            master_seed=13, workers=2)
        rounds = len(result.rounds)
        assert rounds >= 2
        assert checked == ["estimating"] + ["evaluating", "estimating"] * (rounds - 1)
        # the parent's improve_policy ran once a round, in the parent's update
        assert len(improved) == rounds
        assert result.policy == determinize(improved[-1])
        assert len(result.qtable.estimate) == len(result.policy.index)

    def test_worker_count_does_not_change_validation(self, demo_params):
        env = simple_env(self.STRAIGHT_MIXED_ENV)
        formula = parse_formula("!u U[<=5] a")
        straight = Policy(3, {EMPTY_HISTORY: 0}, actions=[1])
        one, two = (validate_true_system(straight, env, formula, demo_params,
                                         self.WIDE_NOISE, self.VALIDATE, master_seed=18,
                                         workers=w)
                    for w in (1, 2))
        assert one == two
        assert 0 < one.successes < one.n and one.n > 4

    def test_one_worker_set_per_command(self, demo_params, process_starts):
        env = simple_env(self.MIXED_ENV)
        formula = parse_formula("!u U[<=5] a")
        result = synthesize(env, formula, demo_params, self.WIDE_NOISE,
                            replace(self.SYNTH, batch_size=4), master_seed=13, workers=2)
        assert len(result.rounds) > 1
        assert len(process_starts) == usable_set_size(2)
        del process_starts[:]
        validate_true_system(result.policy, env, formula, demo_params, self.WIDE_NOISE,
                             self.VALIDATE, master_seed=17, workers=2)
        assert len(process_starts) == usable_set_size(2)
        assert multiprocessing.active_children() == []
        # a draw of batch size 1 runs in the parent, so no worker would get one
        one_each = replace(self.VALIDATE, batch_size=1)
        del process_starts[:]
        serial = validate_true_system(result.policy, env, formula, demo_params,
                                      self.WIDE_NOISE, one_each, master_seed=17, workers=1)
        assert validate_true_system(result.policy, env, formula, demo_params,
                                    self.WIDE_NOISE, one_each, master_seed=17,
                                    workers=2) == serial
        assert process_starts == []

    def test_sampler_reaches_each_worker_at_most_once(self, demo_params, monkeypatch,
                                                      two_cpus):
        pickled = []
        getstate = PathSampler.__getstate__

        def counted(sampler):
            pickled.append(sampler)
            return getstate(sampler)

        monkeypatch.setattr(PathSampler, "__getstate__", counted)
        env = simple_env(self.MIXED_ENV)
        result = synthesize(env, parse_formula("!u U[<=5] a"), demo_params,
                            self.WIDE_NOISE, replace(self.SYNTH, batch_size=4),
                            master_seed=13, workers=2)
        assert len(result.rounds) > 1
        assert len(pickled) <= 2

    def test_task_reaches_each_worker_at_most_once(self, two_cpus):
        _CountedTask.pickles = 0
        draws = []
        with _worker_set(_CountedTask(), 2) as pool:
            for k in range(5):
                pool.send(_CountedTask.shifted, k)
                draws.append(_map_episodes(pool, range(4 * k, 4 * k + 4)))
        assert draws == [[i * i + k for i in range(4 * k, 4 * k + 4)] for k in range(5)]
        assert _CountedTask.pickles <= 2
        assert multiprocessing.active_children() == []

    def test_one_worker_runs_the_task_in_the_parent(self, two_cpus, process_starts):
        _CountedTask.pickles = 0
        task = _CountedTask()
        with _worker_set(task, 1) as pool:
            assert pool.task is task
            assert pool.map(range(4)) == [i * i for i in range(4)]
            pool.send(_CountedTask.shifted, 3)
            assert pool.task.offset == 3
            assert _map_episodes(pool, range(2, 5)) == [7, 12, 19]
        assert process_starts == []
        assert _CountedTask.pickles == 0

    @pytest.mark.parametrize("affinity, cpu_count, size", [
        ({0, 1, 2}, None, 3),  # sched_getaffinity decides, not cpu_count
        (None, 2, 2),          # no affinity on this platform: cpu_count
        (None, None, 1),       # neither: one CPU, so a set that starts no process
    ])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, affinity, cpu_count,
                                               size):
        opened = []

        class InlineWorkers:
            """Runs chunks in this process and records the set it was asked for."""

            def __init__(self, task, size):
                opened.append(size)
                self.task = task

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, indices):
                return [self.task.run(i) for i in indices]

        monkeypatch.setattr(synthesis, "_WorkerSet", InlineWorkers)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        with _worker_set(_CountedTask(), 200) as pool:
            draw = _map_episodes(pool, range(10))
        assert draw == [i * i for i in range(10)]
        assert opened == [size]

    def test_chunks_follow_the_set_size(self, two_cpus):
        with _worker_set(_CountedTask(), 2) as pool:
            assert pool.size == 2
            for n in (2, 3, 7):
                assert pool.map(range(n)) == [i * i for i in range(n)]
            assert _map_episodes(pool, range(5, 6)) == [25]

    def test_spawned_workers_give_the_same_results(self, demo_params, monkeypatch,
                                                   two_cpus, process_starts):
        env = simple_env(self.MIXED_ENV)
        formula = parse_formula("!u U[<=5] a")
        algorithm = replace(self.SYNTH, batch_size=4)
        one = synthesize(env, formula, demo_params, self.WIDE_NOISE, algorithm,
                         master_seed=13, workers=1)
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: get_context("spawn"))
        spawned = synthesize(env, formula, demo_params, self.WIDE_NOISE, algorithm,
                             master_seed=13, workers=2)
        assert len(process_starts) == 2
        assert spawned.rounds == one.rounds and len(one.rounds) > 1
        assert list(spawned.policy.index.items()) == list(one.policy.index.items())
        assert spawned.policy.actions == one.policy.actions
        assert np.array_equal(spawned.qtable.estimate, one.qtable.estimate)
        assert multiprocessing.active_children() == []


class TestWorkerLifecycle:
    """Every way out of a worker set ends and joins its processes."""

    def test_normal_return(self, two_cpus, process_starts):
        with _worker_set(_CountedTask(), 2) as pool:
            assert pool.map(range(6)) == [i * i for i in range(6)]
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_worker_error_keeps_its_type(self, two_cpus):
        with pytest.raises(ValueError, match="episode -3 fails"):
            with _worker_set(_CountedTask(), 2) as pool:
                pool.map(range(-3, 3))
        assert multiprocessing.active_children() == []

    def test_error_in_an_update_keeps_its_type(self, two_cpus):
        with pytest.raises(TypeError):
            with _worker_set(_CountedTask(), 2) as pool:
                pool.send(_CountedTask.shifted)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    def test_parent_exception(self, two_cpus, exc_type):
        with pytest.raises(exc_type):
            with _worker_set(_CountedTask(), 2) as pool:
                pool.map(range(4))
                raise exc_type()
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_named(self, two_cpus):
        with pytest.raises(RuntimeError, match="died") as raised:
            with _worker_set(_CountedTask(), 2) as pool:
                pool.map(range(4))
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
                assert not victim.is_alive()
                pool.map(range(4))
        assert victim.name in str(raised.value) and str(victim.pid) in str(raised.value)
        assert multiprocessing.active_children() == []

    def test_worker_dying_in_a_chunk_is_named(self, two_cpus):
        with pytest.raises(RuntimeError, match=r"bltlsynth-worker-1 \(pid \d+\) died"):
            with _worker_set(_CountedTask(), 2) as pool:
                pool.map(range(_CountedTask.KILL, _CountedTask.KILL + 4))
        assert multiprocessing.active_children() == []


def test_theorem_bound_helper():
    assert theorem_bound_holds(0.664, 0.847, 0.05)
    assert theorem_bound_holds(0.5, 0.41, 0.05)
    assert not theorem_bound_holds(0.5, 0.39, 0.05)
