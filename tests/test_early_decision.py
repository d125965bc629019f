"""Stage-at-a-time decision: the trace walk fed one stage at a time, the
online mission monitor, ``PathSampler.decide`` and the closed-loop validation
task, each checked against its whole-horizon form (``trace_from_tube``,
``sequential_witness`` and ``check_generic``, ``PathSampler.finish``,
``simulate_true_system``)."""

import json

import numpy as np
import pytest

from bltlsynth.bltl import (SequentialMonitor, check_generic, horizon_stages, parse_formula,
                            sequential_witness, spec_to_formula, to_sequential)
from bltlsynth.config import builtin_config_path, config_from_dict
from bltlsynth.dynamics import measure
from bltlsynth.mdp import STREAM_VALIDATE, PathSampler, decide_tube, episode_rng
from bltlsynth.synthesis import (Policy, _TrueSystemTask, simulate_true_system,
                                 uniform_policy, validate_true_system)
from bltlsynth.tracegen import TraceWalk, UncertaintyTube, trace_from_tube, tube_rules
from bltlsynth.uncertainty import build_tube

from conftest import DT, simple_env
from oracles import random_spec, random_trace, random_trace_case, whole_horizon_validation
from test_tracegen import straight_trajectory


def tube_walk(env):
    return TraceWalk(tube_rules(env), env.unsafe)


def decide(env, text, stages, radii):
    """``decide_tube`` on the stages with the mission of the formula text."""
    return decide_tube(tube_walk(env), SequentialMonitor(spec(text)), zip(stages, radii))


def walk_by_stage(env, traj, radii):
    """(closed steps, open step) after each stage but the last, and the
    finished trace, from one walk fed stage by stage."""
    walk = tube_walk(env)
    seen = []
    for stage, d in zip(traj.stages, radii):
        walk.extend(stage, d)
        walk.advance()
        seen.append((list(walk.steps), walk.open))
    return seen[:-1], walk.finish()


def assert_prefixes(env, traj, radii):
    """Every stage's closed steps start the whole trace, and its open step
    has the label and at most the duration of the whole trace's next step."""
    seen, finished = walk_by_stage(env, traj, radii)
    whole = trace_from_tube(UncertaintyTube(traj, tuple(radii), (0.0,) * len(radii)), env)
    assert finished == whole
    for closed, open_step in seen:
        assert closed == whole[:len(closed)]
        if open_step is not None:
            label, duration = open_step
            assert whole[len(closed)][0] == label
            assert 0.0 <= duration <= whole[len(closed)][1]
    return seen, whole


def spec(text):
    return to_sequential(parse_formula(text), "u")


# ---------------------------------------------------------------------------
# The walk, one stage at a time (straight runs at 0.25 m/s along y = 0;
# stage k ends at t = 2.6 (k+1) s, x = 0.65 (k+1) m)

class TestWalkByStage:
    def test_goal_step_across_a_boundary_ends_where_the_radius_grows(self, demo_params):
        # the radius-0.1 disc fits in "a" from t = 1.2 s; the radius-0.3 disc
        # of stage 3 no longer fits, so the step ends at the stage boundary
        env = simple_env([("a", (0.2, -0.2, 9.0, 0.2))])
        traj = straight_trajectory(demo_params, 5)
        seen, whole = assert_prefixes(env, traj, (0.1, 0.1, 0.1, 0.3, 0.3))
        assert [label for label, _ in whole] == [None, "a", None]
        assert whole[1][1] == pytest.approx(3 * DT - 1.2, abs=1e-9)
        # open while the interval ends at the last stage end, closed after
        assert [(len(closed), o and o[0]) for closed, o in seen] == \
            [(1, "a"), (1, "a"), (1, "a"), (2, None)]
        assert seen[2][1][1] == pytest.approx(3 * DT - 1.2, abs=1e-9)
        assert seen[3][0] == whole[:2]
        # the monitor keeps the step open until stage 4 ends it short of 7 s
        assert decide(env, "!u U[<=2] G[<=7] a", traj.stages,
                      (0.1, 0.1, 0.1, 0.3, 0.3)) == (False, 4)

    def test_goal_step_across_boundaries_meets_its_dwell_while_open(self, demo_params):
        env = simple_env([("a", (0.2, -0.2, 9.0, 0.2))])
        traj = straight_trajectory(demo_params, 5)
        seen, whole = assert_prefixes(env, traj, (0.1,) * 5)
        assert [label for label, _ in whole] == [None, "a"]
        assert [o[1] for _, o in seen] == pytest.approx(
            [DT * (k + 1) - 1.2 for k in range(4)], abs=1e-9)
        # 7 s of "a" are reached once stage 4 is built, long before the step closes
        assert decide(env, "!u U[<=2] G[<=7] a", traj.stages, (0.1,) * 5) == (True, 4)

    def test_exit_within_tolerance_after_a_boundary(self, demo_params):
        # containment would end 0.5 ns into stage 2: one breakpoint with the
        # boundary, so the step ends there, once stage 2 shows no more of it
        x1 = 0.25 * (2 * DT + 0.5e-9) + 0.1
        env = simple_env([("a", (0.2, -0.2, x1, 0.2))])
        traj = straight_trajectory(demo_params, 4)
        seen, whole = assert_prefixes(env, traj, (0.1,) * 4)
        assert [label for label, _ in whole] == [None, "a", None]
        assert whole[1][1] == pytest.approx(2 * DT - 1.2, abs=1e-12)
        assert [(len(closed), o and o[0]) for closed, o in seen] == \
            [(1, "a"), (1, "a"), (2, None)]

    def test_unsafe_wins_a_tie_at_a_boundary(self, demo_params):
        # containment in "a" and contact with the corner of "u" both start at
        # x = 1.3, the end of stage 1: unsafe goes first
        env = simple_env([("a", (0.8, -0.5, 6.0, 0.5)), ("u", (1.3, 0.5, 1.5, 1.2))])
        traj = straight_trajectory(demo_params, 5)
        seen, whole = assert_prefixes(env, traj, (0.5,) * 5)
        assert [label for label, _ in whole] == [None, "u", None, "a"]
        assert whole[0][1] == pytest.approx(2 * DT, abs=1e-9)
        assert whole[1][1] == pytest.approx(0.8, abs=1e-9)
        # nothing is entered before stage 2 shows both intervals
        assert seen[0] == ([], (None, pytest.approx(DT)))
        assert seen[1] == ([], (None, pytest.approx(2 * DT)))
        assert seen[2][0][:2] == whole[:2]
        assert decide(env, "!u U[<=20] G[<=1] a", traj.stages, (0.5,) * 5) == (False, 3)

    def test_unsafe_contact_cuts_an_open_goal_step(self, demo_params):
        # "a" is entered at t = 1.2 s and stays open until the disc touches
        # "u" (x in [2.1, 2.4], t in [8.4, 9.6] s, in stage 3), which cuts it
        env = simple_env([("a", (0.2, -0.2, 9.0, 0.1)), ("u", (2.1, 0.1, 2.4, 1.0))])
        traj = straight_trajectory(demo_params, 5)
        seen, whole = assert_prefixes(env, traj, (0.1,) * 5)
        assert [label for label, _ in whole] == [None, "a", None, "u", None, "a"]
        assert whole[1][1] == pytest.approx(8.4 - 1.2, abs=1e-9)
        assert whole[3][1] == pytest.approx(1.2, abs=1e-9)
        assert [o[0] for _, o in seen] == ["a", "a", "a", "a"]
        assert seen[3][0] == whole[:5]
        # without the cut the 7.5 s dwell would be met
        assert decide(env, "!u U[<=2] G[<=7.5] a", traj.stages, (0.1,) * 5) == (False, 4)
        assert decide(env, "!u U[<=2] G[<=7.1] a", traj.stages, (0.1,) * 5) == (True, 4)

    def test_random_geometry(self, demo_params):
        rng = np.random.default_rng(8642)
        for _ in range(150):
            traj, radii, env = random_trace_case(rng, demo_params, tube=True)
            assert_prefixes(env, traj, radii)

    def test_demo_tubes(self, demo_config):
        params, nm, env = demo_config.params, demo_config.nm, demo_config.env
        rng = np.random.default_rng(97)
        for _ in range(60):
            history = [(a, measure(nm, params, a, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4))))
                       for a in rng.integers(0, 3, size=9)]
            tube = build_tube(history, env.initial_pose, params, nm)
            assert_prefixes(env, tube.trajectory, tube.radii)


class TestWalkRule:
    """The walk's rule fed interval lists directly: a step is entered only
    once every rule's intervals are known past its start + BREAKPOINT_TOL,
    whatever breakpoints the geometry gives."""

    RULES = [("u", (), True), ("a", (), False), ("b", (), False)]

    def staged_and_whole(self, stages):
        """Steps of a walk advanced over each (total, lists) in turn, and
        those of a walk finished on the last lists."""
        walk = TraceWalk(self.RULES, "u")
        for total, lists in stages:
            walk.total = total
            walk.lists[:] = [list(ivs) for ivs in lists]
            walk.advance()
        whole = TraceWalk(self.RULES, "u")
        whole.total = total
        whole.lists[:] = [list(ivs) for ivs in lists]
        return walk.finish(), whole.finish()

    def test_no_entry_within_tolerance_of_the_stage_end(self):
        # "a" starts 0.5 ns before the stage end, where an unsafe interval
        # of the next stage starts and wins the tie
        staged, whole = self.staged_and_whole([
            (5.0, [[], [(5.0 - 0.5e-9, 5.0)], []]),
            (7.0, [[(5.0, 6.0)], [(5.0 - 0.5e-9, 7.0)], []])])
        assert staged == whole
        assert [label for label, _ in whole] == [None, "u", None, "a"]

    def test_no_skip_of_an_interval_the_next_stage_can_extend(self):
        # after "a" ends 1.5 ns before the stage end, "b" still reaches past
        # the stage end minus the tolerance; the next stage extends it
        staged, whole = self.staged_and_whole([
            (5.0, [[], [(1.0, 5.0 - 1.5e-9)], [(4.5, 5.0 - 0.7e-9)]]),
            (7.0, [[], [(1.0, 5.0 - 1.5e-9)], [(4.5, 6.0)]])])
        assert staged == whole
        assert [label for label, _ in whole] == [None, "a", None, "b", None]


# ---------------------------------------------------------------------------
# The monitor

class TestSequentialMonitor:
    def test_dwell_met_on_an_open_step(self):
        monitor = SequentialMonitor(spec("!u U[<=5] G[<=1] a"))
        assert monitor.push(None, 2.0) is None
        assert monitor.push("a", 0.5, closed=False) is None
        assert monitor.push("a", 1.0, closed=False) is True

    def test_goal_step_may_outlast_the_deadline(self):
        # a hit counts when the step starts within the bound (here at 5 s);
        # its dwell can still be met afterwards
        monitor = SequentialMonitor(spec("!u U[<=5] G[<=1] a"))
        assert monitor.push(None, 5.0) is None
        assert monitor.push("a", 0.5, closed=False) is None
        assert monitor.push("a", 0.9, closed=False) is None
        assert monitor.push("a", 1.0, closed=False) is True

    def test_deadline_expiry_on_an_open_step(self):
        monitor = SequentialMonitor(spec("!u U[<=5] G[<=1] a"))
        assert monitor.push(None, 5.0, closed=False) is None
        assert monitor.push(None, 5.5, closed=False) is False

    def test_deadline_expiry_on_a_closed_step(self):
        monitor = SequentialMonitor(spec("!u U[<=2] (G[<=1] a & !u U[<=2] b)"))
        assert monitor.push(None, 1.0) is None
        assert monitor.push("a", 1.5) is None
        assert monitor.push(None, 0.5) is None  # 2 s since "a" started
        assert monitor.push(None, 0.1) is False

    def test_unsafe_step_ends_every_live_state(self):
        monitor = SequentialMonitor(spec("!u U[<=5] (G[<=1] a & !u U[<=9] b)"))
        assert monitor.push("a", 2.0) is None
        assert monitor.push(None, 0.0) is None
        assert monitor.push("u", 0.0, closed=False) is False

    def test_unsafe_at_the_start(self):
        assert SequentialMonitor(spec("!u U[<=5] a")).push("u", 0.0, closed=False) is False

    def test_later_start_of_a_phase_replaces_an_earlier_one(self):
        # "b" is 3.5 s after the first "a" (too late) but 1 s after the second
        trace = [("a", 1.0), (None, 1.5), ("a", 1.0), (None, 0.0), ("b", 0.5)]
        s = spec("!u U[<=9] (G[<=1] a & !u U[<=2] b)")
        assert sequential_witness(trace, s) == [(1, 2, 1), (3, 2, 1)]
        monitor = SequentialMonitor(s)
        assert [monitor.push(*step) for step in trace] == [None] * 4 + [True]

    def test_matches_witness_and_generic_checker(self):
        """Fed whole, the monitor agrees with both whole-trace checkers; fed
        each step first as open with a part of its duration, any verdict it
        reaches early is the final one."""
        rng = np.random.default_rng(4711)
        decided_early = 0
        for _ in range(2000):
            s = random_spec(rng, ["a", "b", "c"])
            trace = random_trace(rng, ["a", "b", "c", "u"])
            want = sequential_witness(trace, s) is not None
            assert want == check_generic(trace, spec_to_formula(s))
            whole = SequentialMonitor(s)
            for step in trace:
                whole.push(*step)
            assert whole.result() == want
            staged = SequentialMonitor(s)
            for n, (label, duration) in enumerate(trace):
                for part in sorted(rng.random(2)):
                    verdict = staged.push(label, part * duration, closed=False)
                    if verdict is not None:
                        assert verdict == want
                        decided_early += n + 1 < len(trace) or part < 1.0
                staged.push(label, duration)
            assert staged.result() == want
        assert decided_early > 500


# ---------------------------------------------------------------------------
# PathSampler.decide against the whole-horizon PathSampler.finish

def demo_doc():
    path = builtin_config_path()
    doc = json.loads(path.read_text())
    doc["environment"] = json.loads((path.parent / doc["environment"]).read_text())
    return doc


def variant_config(name):
    """The demo mission with wider noise, a spin-in-place action, or sharp
    turns; or the demo world with a dropoff deadline just after a straight
    run arrives there, so that verdicts are fixed only in the last stage."""
    doc = demo_doc()
    if name == "wide-noise":
        for side in ("right", "left"):
            doc["noise"][side].update(eps_min=-0.03, delta=0.02)
    elif name == "spin":
        doc["vehicle"]["actions"][2] = [2.0, -2.0]
    elif name == "sharp-turn":
        doc["vehicle"]["actions"][0] = [5.5, 0.9]
        doc["vehicle"]["actions"][2] = [0.9, 5.5]
    elif name == "late-dropoff":
        doc["formula"] = "!unsafe U[<=9.65] dropoff"
    return config_from_dict(doc)


def sample_policies(n_actions, n_tiles, rng):
    """Uniform, random stochastic and random deterministic policies with a
    row for every history of up to two stages."""
    level = histories = [()]
    for _ in range(2):
        level = [h + ((a, j_r, j_l),) for h in level for a in range(n_actions)
                 for j_r in range(1, n_tiles + 1) for j_l in range(1, n_tiles + 1)]
        histories = histories + level
    index = {h: i for i, h in enumerate(histories)}
    return [uniform_policy(n_actions),
            Policy(n_actions, index, probs=rng.dirichlet(np.ones(n_actions), len(index))),
            Policy(n_actions, index, actions=rng.integers(0, n_actions, len(index)).tolist())]


@pytest.mark.parametrize("name", ["demo", "wide-noise", "spin", "sharp-turn"])
def test_decide_matches_finish(name):
    cfg = variant_config(name)
    s = to_sequential(cfg.formula, cfg.env.unsafe)
    sampler = PathSampler(cfg.env, s, cfg.params, cfg.nm, 9)
    rng = np.random.default_rng(53)
    built = satisfied = episodes = 0
    for p, policy in enumerate(sample_policies(3, cfg.nm.right.n, rng)):
        for e in range(150):
            history = sampler.sample_history(policy, episode_rng(7, 9, p, e))
            verdict, stages = sampler.decide(history)
            assert verdict == sampler.finish(history).satisfied
            assert 1 <= stages <= 9
            built += stages
            satisfied += verdict
            episodes += 1
    assert built < 0.8 * 9 * episodes
    if name == "demo":
        assert satisfied > 0


# ---------------------------------------------------------------------------
# Closed-loop validation episodes against the whole-horizon simulate_true_system

def random_strategy(n_tiles, rng, drop=0.0):
    """A deterministic policy with a row for each history of up to three
    stages that it reaches itself: straight on (action 1) with probability
    0.9, else a random action.  With ``drop``, each row but the root's is
    left out with that probability, so the default action 0 is taken there;
    it is also taken on every longer history."""
    index, actions, level = {}, [], [()]
    for _ in range(4):
        reached = []
        for h in level:
            a = 1 if rng.random() < 0.9 else int(rng.integers(3))
            if not h or rng.random() >= drop:
                index[h] = len(actions)
                actions.append(a)
            reached += [h + ((a, j_r, j_l),) for j_r in range(1, n_tiles + 1)
                        for j_l in range(1, n_tiles + 1)]
        level = reached
    return Policy(3, index, actions=actions)


@pytest.mark.parametrize("name", ["demo", "wide-noise", "spin", "sharp-turn", "late-dropoff"])
def test_validation_decision_matches_simulate_true_system(name):
    cfg = variant_config(name)
    s = to_sequential(cfg.formula, cfg.env.unsafe)
    horizon = horizon_stages(cfg.formula, cfg.params.dt)
    rng = np.random.default_rng(61)
    n_tiles = cfg.nm.right.n
    policies = [uniform_policy(3), random_strategy(n_tiles, rng),
                random_strategy(n_tiles, rng, drop=0.25)]
    simulated = satisfied = episodes = 0
    for seed, policy in enumerate(policies):
        task = _TrueSystemTask(cfg.env, s, cfg.params, cfg.nm, policy, horizon, seed)
        for e in range(170):
            verdict, stages = task.decide(e)
            whole = simulate_true_system(policy, cfg.env, s, cfg.params, cfg.nm, horizon,
                                         episode_rng(seed, STREAM_VALIDATE, 0, e))
            assert verdict == whole[2]
            assert 1 <= stages <= horizon
            simulated += stages
            satisfied += verdict
            episodes += 1
    assert 0 < satisfied < episodes
    if name == "demo":  # 5.2 of 9 stages on average
        assert simulated < 0.7 * 9 * episodes


@pytest.mark.parametrize("workers,batch_size", [(1, 1), (1, 4), (2, 1), (2, 4)])
def test_validation_matches_whole_horizon_oracle(workers, batch_size):
    cfg = variant_config("demo")
    policy = random_strategy(cfg.nm.right.n, np.random.default_rng(62))
    kwargs = dict(delta=0.05, confidence=0.9, prior_alpha=1.0, prior_beta=1.0,
                  master_seed=63, batch_size=batch_size)
    result = validate_true_system(policy, cfg.env, cfg.formula, cfg.params, cfg.nm,
                                  workers=workers, **kwargs)
    assert result == whole_horizon_validation(policy, cfg.env, cfg.formula, cfg.params,
                                              cfg.nm, **kwargs)
    assert 0 < result.successes < result.n
