import math
import pickle

import numpy as np
import pytest

from bltlsynth.bltl import parse_formula, to_sequential
from bltlsynth.dynamics import NoiseModel, WheelNoise, measure
from bltlsynth.mdp import EMPTY_HISTORY, EpisodeStream, PathSampler
from bltlsynth.synthesis import Policy, uniform_policy

from conftest import policy_from_rows, simple_env, symmetric_noise
from oracles import (DUMMY_ACTION, enabled_actions, episode_rng, replay_decision,
                     sample_history_scalar, successors, transition_prob)


@pytest.fixture
def small_spec():
    return to_sequential(parse_formula("!u U[<=4] a"), "u")


@pytest.fixture
def small_env():
    return simple_env([("a", (0.8, -1.0, 1.6, 1.0)), ("u", (3.0, -1.0, 4.0, 1.0))])


class TestEnabledActions:
    def test_full_set_below_horizon(self, demo_params):
        assert enabled_actions(EMPTY_HISTORY, demo_params, 9) == [0, 1, 2]

    def test_dummy_at_horizon(self, demo_params):
        state = ((0, 1, 1),) * 9
        assert enabled_actions(state, demo_params, 9) == [DUMMY_ACTION]

    def test_full_set_just_below_horizon(self, demo_params):
        state = ((0, 1, 1),) * 8
        assert enabled_actions(state, demo_params, 9) == [0, 1, 2]

    def test_overlong_history_rejected(self, demo_params):
        with pytest.raises(ValueError):
            enabled_actions(((0, 1, 1),) * 10, demo_params, 9)


class TestTransitionProb:
    def test_extension_probability_is_product(self, demo_noise):
        nm = symmetric_noise(-0.01, 0.005, 2, (0.3, 0.7))
        state = ((1, 1, 1),)
        nxt = state + ((0, 1, 2),)
        assert transition_prob(state, 0, nxt, nm, 9) == pytest.approx(0.3 * 0.7)

    def test_dummy_self_loop(self, demo_noise):
        state = ((0, 1, 1),) * 9
        assert transition_prob(state, DUMMY_ACTION, state, demo_noise, 9) == 1.0
        assert transition_prob(state, 0, state, demo_noise, 9) == 0.0

    def test_non_extension_is_zero(self, demo_noise):
        state = ((1, 1, 1),)
        other = ((2, 1, 1), (0, 1, 1))
        assert transition_prob(state, 0, other, demo_noise, 9) == 0.0

    def test_wrong_action_is_zero(self, demo_noise):
        state = EMPTY_HISTORY
        nxt = ((1, 2, 2),)
        assert transition_prob(state, 0, nxt, demo_noise, 9) == 0.0
        assert transition_prob(state, 1, nxt, demo_noise, 9) > 0.0


class TestSuccessors:
    def test_nine_extensions(self, demo_params, demo_noise):
        succ = successors(EMPTY_HISTORY, 1, demo_noise, demo_params, 9)
        assert len(succ) == 9
        assert all(len(s) == 1 and s[-1][0] == 1 for s, _ in succ)

    def test_probabilities_sum_to_one(self, demo_params, demo_noise):
        succ = successors(EMPTY_HISTORY, 0, demo_noise, demo_params, 9)
        assert abs(sum(p for _, p in succ) - 1.0) <= 1e-12

    def test_uniform_tiles_give_equal_probabilities(self, demo_params):
        nm = symmetric_noise(-0.01, 0.005, 3, (1 / 3, 1 / 3, 1 / 3))
        succ = successors(EMPTY_HISTORY, 2, nm, demo_params, 9)
        assert all(p == pytest.approx(1 / 9) for _, p in succ)

    def test_not_enabled_rejected(self, demo_params, demo_noise):
        with pytest.raises(ValueError, match="not enabled"):
            successors(EMPTY_HISTORY, DUMMY_ACTION, demo_noise, demo_params, 9)
        with pytest.raises(ValueError, match="not enabled"):
            successors(((0, 1, 1),) * 9, 0, demo_noise, demo_params, 9)

    def test_consistent_with_transition_prob(self, demo_params, demo_noise):
        state = ((2, 3, 1),)
        for nxt, p in successors(state, 1, demo_noise, demo_params, 9):
            assert transition_prob(state, 1, nxt, demo_noise, 9) == pytest.approx(p)


class TestEpisodeStream:
    """``EpisodeStream(seed, purpose, round).rng(index)`` draws the doubles of
    numpy's Philox keyed by the seed sequence of (seed, (purpose, round)) with
    the counter (0, index, 0, 0), the oracle's ``episode_rng``."""

    SEEDS = [0, 1, 2026, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 40 + 3, 2 ** 64 + 9, 2 ** 128 + 11,
             3 ** 90]
    INDICES = [0, 1, 7, 1000, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_numpys(self, seed):
        for purpose in (0, 1, 2):
            for round_index in (0, 1, 2, 5, 2 ** 32 + 1):
                stream = EpisodeStream(seed, purpose, round_index)
                for index in self.INDICES:
                    want = episode_rng(seed, purpose, round_index, index).random(30)
                    assert stream.rng(index).random(30).tolist() == want.tolist()

    @pytest.mark.parametrize("drawn", [1, 3, 27])
    def test_partly_used_generator_leaves_the_next_episode_unchanged(self, drawn):
        # Philox buffers four outputs, so these counts leave some unread
        stream = EpisodeStream(2026, 0, 3)
        for index in [0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 2]:
            want = episode_rng(2026, 0, 3, index).random(drawn)
            assert stream.rng(index).random(drawn).tolist() == want.tolist()
            want = episode_rng(2026, 0, 3, index + 1).random(27)
            assert stream.rng(index + 1).random(27).tolist() == want.tolist()

    def test_spare_32_bit_half_not_carried_over(self):
        stream = EpisodeStream(7, 1, 2)
        for index in range(4):
            stream.rng(index).integers(2 ** 32, dtype=np.uint32)  # keeps the other half
            want = episode_rng(7, 1, 2, index + 1).integers(2 ** 32, size=3, dtype=np.uint32)
            got = stream.rng(index + 1).integers(2 ** 32, size=3, dtype=np.uint32)
            assert got.tolist() == want.tolist()

    def test_indices_outside_one_word_rejected(self):
        stream = EpisodeStream(2026, 1, 1)
        for index in (-1, 2 ** 64, 3.0):
            with pytest.raises(ValueError, match=f"episode index {index!r} is not"):
                stream.rng(index)
        with pytest.raises(ValueError, match="non-negative"):
            EpisodeStream(-5, 0, 0).rng(0)

    def test_one_generator_reseeded_per_episode(self):
        stream = EpisodeStream(7, 2, 0)
        first = stream.rng(10)
        assert stream.rng(11) is first
        assert first.random(5).tolist() == episode_rng(7, 2, 0, 11).random(5).tolist()

    def test_pickle_rebuilds_the_stream(self):
        stream = EpisodeStream(2 ** 40 + 3, 1, 4)
        stream.rng(300)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone._rng is None
        assert [clone.rng(i).random() for i in range(3)] == \
            [episode_rng(2 ** 40 + 3, 1, 4, i).random() for i in range(3)]


class TestPathSampler:
    def test_replay_determinism(self, small_env, small_spec, demo_params, demo_noise):
        sampler = PathSampler(small_env, small_spec, demo_params, demo_noise, 3)
        policy = uniform_policy(3)
        a = sampler.finish(sample_history_scalar(policy, demo_noise, 3, episode_rng(42, 0, 1, 5)))
        b = sampler.finish(sample_history_scalar(policy, demo_noise, 3, episode_rng(42, 0, 1, 5)))
        assert a.state == b.state
        assert a.trace == b.trace
        assert a.satisfied == b.satisfied
        c = sampler.finish(sample_history_scalar(policy, demo_noise, 3, episode_rng(42, 0, 1, 6)))
        assert c.state != a.state or c.trace != a.trace

    def test_zero_noise_deterministic_policy_single_path(self, small_env, small_spec,
                                                         demo_params, zero_noise):
        sampler = PathSampler(small_env, small_spec, demo_params, zero_noise, 3)
        det = Policy(3, {}, actions=[])
        paths = {sampler.finish(sample_history_scalar(det, zero_noise, 3,
                                                      episode_rng(1, 0, 0, i))).state
                 for i in range(5)}
        assert len(paths) == 1
        assert paths.pop() == ((0, 1, 1),) * 3

    def test_path_sample_invariants(self, small_env, small_spec, demo_params, demo_noise):
        from bltlsynth.bltl import check_sequential
        sampler = PathSampler(small_env, small_spec, demo_params, demo_noise, 4)
        for i in range(10):
            path = sampler.finish(sample_history_scalar(uniform_policy(3), demo_noise, 4,
                                                        episode_rng(9, 0, 0, i)))
            assert len(path.state) == 4
            assert abs(sum(t for _, t in path.trace) - 4 * demo_params.dt) < 1e-9
            assert path.satisfied == check_sequential(list(path.trace), small_spec)

    def test_tile_frequencies_match_transition_probs(self, small_env, small_spec,
                                                     demo_params):
        nm = symmetric_noise(-0.01, 0.005, 3, (0.2, 0.5, 0.3))
        sampler = PathSampler(small_env, small_spec, demo_params, nm, 1)
        det = Policy(3, {}, actions=[])
        rng = np.random.default_rng(123)
        n = 100_000
        counts: dict = {}
        for _ in range(n):
            hist, _ = sampler.sample_history(det, rng)
            counts[hist[0]] = counts.get(hist[0], 0) + 1
        for nxt, p in successors(EMPTY_HISTORY, 0, nm, demo_params, 1):
            freq = counts.get(nxt[0], 0) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * sigma

    @pytest.mark.parametrize("deterministic", [False, True], ids=["stochastic", "deterministic"])
    def test_one_draw_matches_scalar_draws(self, small_env, small_spec, demo_params,
                                           deterministic):
        # rows on some states only, so the walk also meets unseen states
        # a different tile distribution on each wheel
        nm = NoiseModel(right=WheelNoise(-0.01, 0.005, 3, (0.2, 0.5, 0.3)),
                        left=WheelNoise(-0.01, 0.005, 3, (0.6, 0.1, 0.3)))
        sampler = PathSampler(small_env, small_spec, demo_params, nm, 5)
        rng = np.random.default_rng(77)
        rows = {}
        for _ in range(60):
            depth = int(rng.integers(0, 4))
            state = tuple((int(rng.integers(3)), int(rng.integers(1, 4)),
                           int(rng.integers(1, 4))) for _ in range(depth))
            row = rng.random(3) * (rng.random(3) < 0.8)
            row[int(rng.integers(3))] += 0.1
            rows[state] = row / row.sum()
        rows[EMPTY_HISTORY] = np.array([0.3, 0.0, 0.7])
        policy = policy_from_rows(rows, 3, deterministic=deterministic)
        seen = []
        for i in range(400):
            a, b = episode_rng(5, 0, 1, i), episode_rng(5, 0, 1, i)
            history, verdict = sampler.sample_history(policy, a)
            full = sample_history_scalar(policy, nm, 5, b)
            want, stages = replay_decision(sampler, full)
            assert (history, verdict) == (full[:stages], want)
            assert a.random() == b.random()  # same number of draws taken
            seen += [full[:k] in rows for k in range(1, 5)]
        assert 0 < sum(seen) < len(seen)

    def test_measured_history_is_measure(self, small_env, small_spec, demo_params,
                                         demo_noise):
        sampler = PathSampler(small_env, small_spec, demo_params, demo_noise, 3)
        history = ((0, 1, 3), (2, 2, 2), (1, 3, 1))
        assert sampler.measured_history(history) == [
            (a, measure(demo_noise, demo_params, a, j_r, j_l)) for a, j_r, j_l in history]
        with pytest.raises(KeyError):
            sampler.measured_history(((3, 1, 1),))
        with pytest.raises(KeyError):
            sampler.measured_history(((0, 4, 1),))

    def test_horizon_validated(self, small_env, small_spec, demo_params, demo_noise):
        with pytest.raises(ValueError):
            PathSampler(small_env, small_spec, demo_params, demo_noise, 0)
