"""Stage-at-a-time decision: the trace walk fed one stage at a time, the
online mission monitor, ``PathSampler.decide`` and its prefix table, and the
closed-loop validation task, each checked against its whole-horizon form (a
walk finished once on whole-trajectory interval lists, ``sequential_witness``
and ``check_generic``, ``PathSampler.finish``, ``simulate_true_system``) or
its table-free form (a fresh sampler, ``decide_tube``), and the exact chain
value of a deterministic policy, which decides each history-tree node from
its parent's stage state, against the unpruned sum of ``finish`` verdicts,
and as the value that the estimate's intervals must cover."""

import json
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bltlsynth.bltl import (SequentialMonitor, check_sequential, horizon_stages,
                            parse_formula, sequential_witness, to_sequential)
from bltlsynth.config import builtin_config_path, config_from_dict
from bltlsynth import mdp, tracegen
from bltlsynth.dynamics import measure
from bltlsynth.mdp import (PREFIX_TABLE_NODES, STREAM_BIE, STREAM_VALIDATE, PathSampler,
                           prefix_table_depth)
from bltlsynth.synthesis import (Policy, _ChainTask, _closed_loop_stages, _estimate,
                                 _TrueSystemTask, _worker_set, simulate_true_system, synthesize,
                                 uniform_policy, validate_true_system)
from bltlsynth.tracegen import (TraceWalk, Trajectory, UncertaintyTube, point_rules,
                                trace_from_trajectory, trace_from_tube, tube_rules)
from bltlsynth.uncertainty import build_tube

from conftest import DT, ENCODER_DELTA, TEST_ALGORITHM, simple_env, symmetric_noise
from oracles import (PushRecord, check_generic, closed_loop_stages_reference, decide_tube,
                     episode_rng, exact_chain_value, follow, one_shot_trace, random_spec, random_trace, random_trace_case,
                     replay_decision, sample_history_scalar, spec_to_formula,
                     whole_horizon_validation)
from test_tracegen import straight_trajectory


def tube_walk(env, monitor):
    return TraceWalk(tube_rules(env), env.unsafe, monitor)


def decide(env, text, stages, radii):
    """``decide_tube`` on the stages with the mission of the formula text."""
    return decide_tube(tube_walk(env, SequentialMonitor(spec(text))), zip(stages, radii))


def walk_by_stage(env, traj, radii):
    """(closed steps, open step) after each stage but the last, and the
    finished trace, from what one walk fed stage by stage pushes: the open
    step is the one the stage pushed last, if any."""
    pushes = PushRecord()
    walk = tube_walk(env, pushes)
    seen = []
    for stage, d in zip(traj.stages, radii):
        pushes.open = None
        walk.append(stage, d)
        seen.append((list(pushes.closed), pushes.open))
    walk.finish()
    return seen[:-1], pushes.closed


def assert_prefixes(env, traj, radii):
    """Every stage's closed steps start the whole trace (of a walk finished
    once on the whole-trajectory interval lists), and its open step has the
    label and at most the duration of the whole trace's next step."""
    seen, finished = walk_by_stage(env, traj, radii)
    whole = one_shot_trace(tube_rules(env), env.unsafe, traj.stages, radii)
    assert finished == whole
    assert trace_from_tube(UncertaintyTube(traj, tuple(radii), (0.0,) * len(radii)), env) == whole
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

    def staged_and_whole(self, monkeypatch, stages, lists):
        """Steps of a walk appended each (duration, intervals) stage in turn,
        and those of a walk finished on the interval lists that the stages
        add up to."""
        monkeypatch.setattr(tracegen, "stage_intervals",
                            lambda rules, stage, d, t0: stage.intervals)
        staged, whole = PushRecord(), PushRecord()
        walk = TraceWalk(self.RULES, "u", staged)
        for duration, intervals in stages:
            walk.append(SimpleNamespace(duration=duration, intervals=intervals), 0.0)
        once = TraceWalk(self.RULES, "u", whole)
        once.total = walk.total
        once.lists[:] = [list(ivs) for ivs in lists]
        assert walk.lists == once.lists
        walk.finish()
        once.finish()
        return staged.closed, whole.closed

    def test_no_entry_within_tolerance_of_the_stage_end(self, monkeypatch):
        # "a" starts 0.5 ns before the stage end, where an unsafe interval
        # of the next stage starts and wins the tie
        staged, whole = self.staged_and_whole(monkeypatch, [
            (5.0, ((), ((5.0 - 0.5e-9, 5.0),), ())),
            (2.0, (((5.0, 6.0),), ((5.0, 7.0),), ()))],
            [[(5.0, 6.0)], [(5.0 - 0.5e-9, 7.0)], []])
        assert staged == whole
        assert [label for label, _ in whole] == [None, "u", None, "a"]

    def test_no_skip_of_an_interval_the_next_stage_can_extend(self, monkeypatch):
        # after "a" ends 1.5 ns before the stage end, "b" still reaches past
        # the stage end minus the tolerance; the next stage extends it
        staged, whole = self.staged_and_whole(monkeypatch, [
            (5.0, ((), ((1.0, 5.0 - 1.5e-9),), ((4.5, 5.0 - 0.7e-9),))),
            (2.0, ((), (), ((5.0, 6.0),)))],
            [[], [(1.0, 5.0 - 1.5e-9)], [(4.5, 6.0)]])
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
    run arrives there, so that verdicts are fixed only in the last stage; or,
    with verdicts fixed within the prefix table's depth, the demo mission
    with a barrier that a left turn meets in its first two stages, or a
    three-stage pickup mission; or the demo mission with a different noise
    model on each wheel."""
    doc = demo_doc()
    if name == "wide-noise":
        for side in ("right", "left"):
            doc["noise"][side].update(eps_min=-0.03, delta=0.02)
    elif name == "lopsided-noise":
        doc["noise"]["right"].update(probs=[0.6, 0.3, 0.1])
        doc["noise"]["left"].update(eps_min=-0.012, delta=0.008, probs=[0.1, 0.3, 0.6])
    elif name == "spin":
        doc["vehicle"]["actions"][2] = [2.0, -2.0]
    elif name == "sharp-turn":
        doc["vehicle"]["actions"][0] = [5.5, 0.9]
        doc["vehicle"]["actions"][2] = [0.9, 5.5]
    elif name == "late-dropoff":
        doc["formula"] = "!unsafe U[<=9.65] dropoff"
    elif name == "early-contact":
        doc["environment"]["regions"][4]["rect"] = [0.2, 0.3, 0.75, 1.0]
    elif name == "short-horizon":
        doc["formula"] = "!unsafe U[<=7.5] pickup"
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
            history = sample_history_scalar(policy, cfg.nm, 9, episode_rng(7, 9, p, e))
            cut, verdict = sampler.decide(follow(history))
            stages = len(cut)
            assert cut == history[:stages]
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
            history, verdict = task.run(e)
            stages = len(history)
            whole = simulate_true_system(policy, cfg.env, s, cfg.params, cfg.nm, horizon,
                                         episode_rng(seed, STREAM_VALIDATE, 0, e))
            assert verdict == whole[2]
            assert history == whole[1][:stages]
            assert 1 <= stages <= horizon
            simulated += stages
            satisfied += verdict
            episodes += 1
    assert 0 < satisfied < episodes
    if name == "demo":  # 5.2 of 9 stages on average
        assert simulated < 0.7 * 9 * episodes


@pytest.mark.parametrize("name", ["demo", "wide-noise", "spin", "sharp-turn", "lopsided-noise"])
def test_closed_loop_float_stages_match_the_pose_reference(name):
    """The closed loop's float stages equal, field for field, the ``Stage``s
    built from a ``Pose`` per stage with per-call noise draws, and so do
    ``simulate_true_system``'s; the stage-by-stage verdict and its stage
    count equal those of the reference stages, under random stochastic and
    deterministic policies."""
    cfg = variant_config(name)
    s = to_sequential(cfg.formula, cfg.env.unsafe)
    horizon = horizon_stages(cfg.formula, cfg.params.dt)
    rules = point_rules(cfg.env)
    rng = np.random.default_rng(64)
    n_tiles = cfg.nm.right.n
    strategy = random_strategy(n_tiles, rng)
    policies = [strategy, random_strategy(n_tiles, rng, drop=0.25),
                Policy(3, strategy.index, probs=rng.dirichlet(np.ones(3), len(strategy.index))),
                uniform_policy(3)]
    counts, verdicts = set(), set()
    for seed, policy in enumerate(policies):
        task = _TrueSystemTask(cfg.env, s, cfg.params, cfg.nm, policy, horizon, seed)
        for e in range(60):
            ref = closed_loop_stages_reference(policy, cfg.env, cfg.params, cfg.nm, horizon,
                                               episode_rng(seed, STREAM_VALIDATE, 0, e))
            got = list(_closed_loop_stages(policy, cfg.env, cfg.params, cfg.nm, horizon,
                                           episode_rng(seed, STREAM_VALIDATE, 0, e)))
            assert [(tuple(st), h) for st, h in got] == [(tuple(st), h) for st, h in ref]
            traj, history, verdict = simulate_true_system(
                policy, cfg.env, s, cfg.params, cfg.nm, horizon,
                episode_rng(seed, STREAM_VALIDATE, 0, e))
            assert traj.stages == tuple(st for st, _ in ref) and history == ref[-1][1]
            stages = Trajectory(tuple(st for st, _ in ref))
            assert verdict == check_sequential(trace_from_trajectory(stages, cfg.env), s)
            want = decide_tube(TraceWalk(rules, cfg.env.unsafe, SequentialMonitor(s)),
                               ((st, 0.0) for st in stages.stages))
            history, decided = task.run(e)
            assert (decided, len(history)) == want and want[0] == verdict
            assert history == ref[len(history) - 1][1]
            counts.add(want[1])
            verdicts.add(verdict)
    assert len(counts) > 2 and verdicts == {True, False}


@pytest.mark.parametrize("name", ["demo", "sharp-turn", "late-dropoff"])
def test_validation_episode_returns_its_history_and_verdict(name):
    """A validation episode returns its measured history up to the stage
    that fixes its verdict, and the verdict: the history is the one the
    closed loop reaches at that stage on the episode's generator, each step
    takes the strategy's action on the history before it, and the stage
    count and verdict are those of the same stages fed at radius 0 through
    a fresh walk (``decide_tube``)."""
    cfg = variant_config(name)
    s = to_sequential(cfg.formula, cfg.env.unsafe)
    horizon = horizon_stages(cfg.formula, cfg.params.dt)
    rules = point_rules(cfg.env)
    rng = np.random.default_rng(65)
    n_tiles = cfg.nm.right.n
    policies = [uniform_policy(3), random_strategy(n_tiles, rng),
                random_strategy(n_tiles, rng, drop=0.25)]
    counts, verdicts = set(), set()
    for seed, policy in enumerate(policies):
        task = _TrueSystemTask(cfg.env, s, cfg.params, cfg.nm, policy, horizon, seed)
        for e in range(60):
            history, verdict = task.run(e)
            stages = list(_closed_loop_stages(policy, cfg.env, cfg.params, cfg.nm, horizon,
                                              task.episodes.rng(e)))
            assert 1 <= len(history) <= horizon
            assert history == stages[len(history) - 1][1]
            assert all(step[0] == policy.best_action(history[:k])
                       for k, step in enumerate(history))
            want = decide_tube(TraceWalk(rules, cfg.env.unsafe, SequentialMonitor(s)),
                               ((stage, 0.0) for stage, _ in stages))
            assert (verdict, len(history)) == want
            counts.add(len(history))
            verdicts.add(verdict)
    assert verdicts == {True, False}
    # late-dropoff's verdicts are fixed only in its last stage
    assert counts == {horizon} if name == "late-dropoff" else len(counts) > 1


def test_validation_episode_left_open_at_its_horizon(monkeypatch):
    """A validation task whose horizon, two stages, falls short of its
    mission's finishes the walk when the stages run out: the history is then
    the whole two-stage run's, and the verdict is that of its whole trace."""
    cfg = variant_config("demo")
    s = to_sequential(cfg.formula, cfg.env.unsafe)
    policy = uniform_policy(3)
    task = _TrueSystemTask(cfg.env, s, cfg.params, cfg.nm, policy, 2, 0)
    finished = []
    finish = TraceWalk.finish

    def spy(walk):
        finished.append(walk)
        finish(walk)

    monkeypatch.setattr(TraceWalk, "finish", spy)
    left_open = 0
    for e in range(60):
        finished.clear()
        history, verdict = task.run(e)
        if finished:
            left_open += 1
            assert len(history) == 2
        _, whole, want = simulate_true_system(policy, cfg.env, s, cfg.params, cfg.nm, 2,
                                              task.episodes.rng(e))
        assert verdict == want and history == whole[:len(history)]
    assert left_open > 20


@pytest.mark.parametrize("workers,batch_size", [(1, 1), (1, 4), (2, 1), (2, 4)])
def test_validation_matches_whole_horizon_oracle(workers, batch_size):
    cfg = variant_config("demo")
    policy = random_strategy(cfg.nm.right.n, np.random.default_rng(62))
    algorithm = replace(TEST_ALGORITHM, confidence=0.9, batch_size=batch_size)
    result = validate_true_system(policy, cfg.env, cfg.formula, cfg.params, cfg.nm,
                                  algorithm, master_seed=63, workers=workers)
    assert result == whole_horizon_validation(policy, cfg.env, cfg.formula, cfg.params,
                                              cfg.nm, algorithm, master_seed=63)
    assert 0 < result.successes < result.n


# ---------------------------------------------------------------------------
# The prefix table of PathSampler.decide against a fresh sampler and the
# stage-built walk

def config_sampler(name):
    """A variant config's sampler at the horizon of its mission."""
    cfg = variant_config(name)
    return cfg, PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                            cfg.nm, horizon_stages(cfg.formula, cfg.params.dt))


def fresh_copy(sampler):
    return PathSampler(sampler.env, sampler.spec, sampler.params, sampler.nm, sampler.horizon)


@pytest.mark.parametrize("name", ["demo", "wide-noise", "spin", "sharp-turn", "late-dropoff"])
def test_warm_table_decides_as_a_fresh_sampler(name):
    """Deterministic strategies repeat prefixes, so most stages come from the
    table; verdicts and stage counts equal those of an empty table, and the
    verdict that of the whole-horizon path."""
    cfg, sampler = config_sampler(name)
    rng = np.random.default_rng(71)
    policies = [random_strategy(cfg.nm.right.n, rng),
                random_strategy(cfg.nm.right.n, rng, drop=0.25)]
    depth = sampler.prefix_depth
    assert depth == 3
    stored = 0
    for p, policy in enumerate(policies):
        for e in range(100):
            history = sample_history_scalar(policy, cfg.nm, sampler.horizon,
                                            episode_rng(7, 11, p, e))
            stored += sum(history[:k] in sampler.prefixes for k in range(1, depth + 1))
            want = fresh_copy(sampler).decide(follow(history))
            assert sampler.decide(follow(history)) == want
            assert want[1] == sampler.finish(history).satisfied
    assert stored > 0.4 * 200 * depth


def test_table_fed_walk_keeps_the_extended_walks_lists(demo_config):
    """A walk restored from the sampler's table entry of a prefix equals a
    walk fed the tube's stages, as ``trace_from_tube`` feeds them, after the
    prefix's stages: interval lists included, and so does the monitor that
    holds its steps."""
    cfg = demo_config
    sampler = PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                          cfg.nm, 9)
    rng = np.random.default_rng(72)
    policy = random_strategy(cfg.nm.right.n, rng)
    restored = 0
    for e in range(40):
        history = sample_history_scalar(policy, cfg.nm, 9, episode_rng(7, 12, 0, e))
        sampler.decide(follow(history))
        tube = sampler.finish(history).tube
        streamed, tabled = (tube_walk(cfg.env, SequentialMonitor(sampler.spec))
                            for _ in range(2))
        for k, (stage, d) in enumerate(zip(tube.trajectory.stages, tube.radii), 1):
            streamed.append(stage, d)
            entry = sampler.prefixes.get(history[:k])
            if entry is not None:
                tabled.restore(entry[1])
                assert vars(tabled) | {"monitor": None} == vars(streamed) | {"monitor": None}
                assert tabled.monitor.snapshot() == streamed.monitor.snapshot()
                restored += 1
    assert restored > 40
    assert any(len(key) == 3 for key in sampler.prefixes)


def test_prefix_table_depth_rule(monkeypatch):
    assert prefix_table_depth(27, 9) == 3  # 27 + 729 + 19683 nodes
    assert prefix_table_depth(27, 2) == 2
    assert prefix_table_depth(1, 9) == 9
    assert prefix_table_depth(PREFIX_TABLE_NODES, 9) == 1
    assert prefix_table_depth(PREFIX_TABLE_NODES + 1, 9) == 0
    monkeypatch.setattr(mdp, "PREFIX_TABLE_NODES", 27 + 729)
    assert prefix_table_depth(27, 9) == 2
    monkeypatch.setattr(mdp, "PREFIX_TABLE_NODES", 27 + 728)
    assert prefix_table_depth(27, 9) == 1


@pytest.mark.parametrize("budget", [None, 100, 20])
def test_table_stays_within_its_depth_and_budget(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(mdp, "PREFIX_TABLE_NODES", budget)
    cfg, sampler = config_sampler("demo")
    policy = uniform_policy(3)
    for e in range(300):
        history = sample_history_scalar(policy, cfg.nm, sampler.horizon,
                                        episode_rng(7, 13, 0, e))
        assert sampler.decide(follow(history)) == fresh_copy(sampler).decide(follow(history))
    depth = sampler.prefix_depth
    assert depth == {None: 3, 100: 1, 20: 0}[budget]
    assert all(1 <= len(key) <= depth for key in sampler.prefixes)
    assert len(sampler.prefixes) <= mdp.PREFIX_TABLE_NODES
    assert (len(sampler.prefixes) > 0) == (depth > 0)


def test_pickled_sampler_carries_an_empty_table():
    """Neither the prefix table, with its walk states, nor a policy's CDF
    rows go into a pickle."""
    cfg, sampler = config_sampler("demo")
    policy = random_strategy(cfg.nm.right.n, np.random.default_rng(73))
    stochastic = Policy(3, policy.index, probs=np.eye(3)[policy.actions] * 0.4 + 0.2)
    verdicts = [sampler.sample_history(stochastic, episode_rng(7, 14, 0, e))
                for e in range(50)]
    histories = [h for h, _ in verdicts]
    held = dict(sampler.prefixes)
    assert all(isinstance(walk, tuple) for _, walk in held.values())
    clone = pickle.loads(pickle.dumps(sampler))
    assert clone.prefixes == {}
    assert sampler.prefixes == held and held
    assert [clone.decide(follow(h)) for h in histories] == verdicts
    rows = dict(stochastic._cdf)
    assert None in rows and len(rows) > 1
    policy_clone = pickle.loads(pickle.dumps(stochastic))
    assert policy_clone._cdf == {} and policy_clone == stochastic
    assert stochastic._cdf == rows
    assert [policy_clone.sample_action(h[:2], 0.5) for h in histories] == \
        [stochastic.sample_action(h[:2], 0.5) for h in histories]


@pytest.mark.parametrize("name", ["early-contact", "short-horizon"])
def test_verdicts_fixed_within_the_table_depth(name, monkeypatch):
    """On missions whose verdicts are often fixed within the table's depth, a
    cold sampler, a warm one that resumes from its table (walk snapshots,
    verdict-fixed ones included) and one with no table decide alike, and as
    ``finish``."""
    cfg, warm = config_sampler(name)
    assert warm.prefix_depth == 3
    if name == "short-horizon":
        assert warm.horizon == 3
    with monkeypatch.context() as patch:
        patch.setattr(mdp, "PREFIX_TABLE_NODES", 20)
        untabled = fresh_copy(warm)
    assert untabled.prefix_depth == 0 and fresh_copy(warm).prefix_depth == 3
    rng = np.random.default_rng(74)
    policies = [uniform_policy(3), random_strategy(cfg.nm.right.n, rng)]
    early = resumed = 0
    for p, policy in enumerate(policies):
        for e in range(150):
            history = sample_history_scalar(policy, cfg.nm, warm.horizon,
                                            episode_rng(7, 15, p, e))
            tabled = [warm.prefixes.get(history[:k]) for k in range(1, 4)]
            resumed += any(entry is not None for entry in tabled)
            verdict = warm.decide(follow(history))
            assert verdict == fresh_copy(warm).decide(follow(history)) \
                == untabled.decide(follow(history))
            assert verdict[1] == warm.finish(history).satisfied
            # a walk snapshot ends with its monitor's: (live states, verdict)
            early += len(verdict[0]) <= 3 and any(entry is not None
                                                  and entry[1][-1][1] is not None
                                                  for entry in tabled)
    assert untabled.prefixes == {}
    assert resumed > 150 and early > 20


@pytest.mark.parametrize("name", ["demo", "short-horizon"])
def test_verdict_left_open_at_a_tabled_horizon(name, monkeypatch):
    """A sampler whose table reaches its horizon (two stages, short of the
    mission's) leaves verdicts open until the walk is finished.  Deciding a
    history again resumes from its horizon-deep entry and finishes the walk
    and monitor that building the history gave, as a fresh sampler does; the
    verdict is ``finish``'s."""
    cfg, whole = config_sampler(name)
    sampler = PathSampler(whole.env, whole.spec, whole.params, whole.nm, 2)
    assert sampler.prefix_depth == sampler.horizon == 2
    finished = []

    finish = TraceWalk.finish

    def spy(walk):
        if isinstance(walk.monitor, SequentialMonitor):  # not ``finish``'s trace
            finished.append(walk.snapshot())
        finish(walk)

    monkeypatch.setattr(TraceWalk, "finish", spy)
    rng = np.random.default_rng(76)
    left_open = 0
    for p, policy in enumerate([uniform_policy(3), random_strategy(cfg.nm.right.n, rng)]):
        for e in range(60):
            history = sample_history_scalar(policy, cfg.nm, 2, episode_rng(7, 17, p, e))
            runs = []
            for s in (fresh_copy(sampler), sampler, sampler):
                finished.clear()
                runs.append((s.decide(follow(history)), list(finished)))
            assert runs[0] == runs[1] == runs[2]
            assert runs[0][0][1] == sampler.finish(history).satisfied
            left_open += bool(runs[0][1])
    assert left_open > 20


@pytest.mark.parametrize("name", ["demo", "wide-noise", "early-contact", "short-horizon"])
def test_one_pass_history_is_the_scalar_history_cut_at_its_verdict(name, monkeypatch):
    """``sample_history`` gives the scalar draws' horizon-long history cut at
    the stage where the table-free replay fixes its verdict, and that
    verdict, which is also ``finish``'s on the whole history.  It takes the
    doubles of the scalar draws however early it stops.  Uniform, stochastic
    and deterministic policies, each on a warm sampler, a cold one and one
    with no table."""
    cfg, warm = config_sampler(name)
    with monkeypatch.context() as patch:
        patch.setattr(mdp, "PREFIX_TABLE_NODES", 20)
        untabled = fresh_copy(warm)
    assert untabled.prefix_depth == 0 and warm.prefix_depth == 3
    rng = np.random.default_rng(75)
    strategy = random_strategy(cfg.nm.right.n, rng)
    policies = [uniform_policy(3), strategy,
                Policy(3, strategy.index, probs=rng.dirichlet(np.ones(3), len(strategy.index)))]
    stages_seen, verdicts = set(), set()
    for p, policy in enumerate(policies):
        for e in range(100):
            b = episode_rng(7, 16, p, e)
            full = sample_history_scalar(policy, cfg.nm, warm.horizon, b)
            verdict, stages = replay_decision(warm, full)
            assert verdict == warm.finish(full).satisfied
            after = b.random()
            for sampler in (warm, fresh_copy(warm), untabled):
                a = episode_rng(7, 16, p, e)
                assert sampler.sample_history(policy, a) == (full[:stages], verdict)
                assert a.random() == after
            stages_seen.add(stages)
            verdicts.add(verdict)
    assert min(stages_seen) < warm.horizon and len(stages_seen) > 1
    if name == "demo":
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Exact chain values: the pruned tree search that carries each node's tube
# state and walk, against the unpruned sum over horizon-long histories, and
# the estimate's coverage of them

def alternating_policy(n_tiles, horizon):
    """Action 1 at even depths and action 0 at odd ones, with a row for each
    history it reaches below the horizon; and its horizon-long histories."""
    index, actions, level = {}, [], [()]
    for depth in range(horizon):
        action = 1 - depth % 2
        for h in level:
            index[h] = len(actions)
            actions.append(action)
        level = [h + ((action, j_r, j_l),) for h in level
                 for j_r in range(1, n_tiles + 1) for j_l in range(1, n_tiles + 1)]
    return Policy(3, index, actions=actions), level


def four_stage_chain(params, scale):
    """A four-stage reach-and-dwell mission on the demo vehicle, at a noise
    wide enough that verdicts differ (scale 1) or at ``scale`` times it: its
    sampler, and the alternating policy with its horizon-long histories."""
    env = simple_env([("a", (0.9, -0.35, 1.4, 0.35)), ("u", (5.0, 5.0, 6.0, 6.0))],
                     props=("u", "a"))
    formula = parse_formula("!u U[<=7.8] G[<=0.5] a")
    nm = symmetric_noise(-15 * scale * ENCODER_DELTA, 10 * scale * ENCODER_DELTA, 3,
                         (0.25, 0.5, 0.25))
    horizon = horizon_stages(formula, params.dt)
    assert horizon == 4
    sampler = PathSampler(env, to_sequential(formula, env.unsafe), params, nm, horizon)
    return (sampler, *alternating_policy(nm.right.n, horizon))


@pytest.mark.parametrize("scale, value, nodes", [(1, 0.8984375, 198), (2, 0.109375, 702)])
def test_exact_chain_value_is_the_unpruned_sum(demo_params, scale, value, nodes):
    """The four-stage mission at both noise scales: the value is the sum,
    over every horizon-long history, of its probability times ``finish``'s
    verdict, and the search stops at the node fixing each one."""
    sampler, policy, histories = four_stage_chain(demo_params, scale)
    probs = sampler.nm.right.probs
    unpruned = sum(math.prod(probs[j_r - 1] * probs[j_l - 1] for _, j_r, j_l in h)
                   * sampler.finish(h).satisfied for h in histories)
    assert exact_chain_value(sampler, policy) == (unpruned, nodes)
    assert unpruned == value


@pytest.mark.parametrize("scale, value", [(1, 0.8984375), (2, 0.109375)])
def test_estimate_intervals_cover_the_exact_chain_value(demo_params, scale, value):
    """Calibration (Zuliani, Platzer, Clarke, HSCC 2010): over 400 stream
    rounds, the estimate's interval (delta 0.05, confidence 0.95, uniform
    prior, batch 1) covers the alternating policy's exact chain value on
    the four-stage mission at least at the stated rate, less three binomial
    standard deviations."""
    sampler, policy, _ = four_stage_chain(demo_params, scale)
    algorithm = replace(TEST_ALGORITHM, delta=0.05, confidence=0.95, prior_alpha=1.0,
                        prior_beta=1.0, batch_size=1)
    rounds = 400
    covered = 0
    for r in range(rounds):
        with _worker_set(_ChainTask(sampler, policy, 2026, STREAM_BIE, r), 1) as pool:
            result = _estimate(pool, algorithm)
        covered += result.lo <= value <= result.hi
    assert covered / rounds >= 0.95 - 3 * math.sqrt(0.95 * 0.05 / rounds)


@pytest.mark.slow
@pytest.mark.parametrize("seed, value, nodes", [(2026, 0.7861099243164062, 432_927),
                                                (99, 0.7914371490478516, 427_284)])
def test_exact_value_of_the_reduced_demos_policy(seed, value, nodes):
    """The policy that synthesis ships on the reduced demo (1,000 episodes
    per round) has the pinned exact chain value, and the shipped interval
    covers it."""
    doc = demo_doc()
    doc["algorithm"].update(episodes_per_round=1000, max_rounds=10)
    cfg = config_from_dict(doc)
    result = synthesize(cfg.env, cfg.formula, cfg.params, cfg.nm, cfg.algorithm,
                        master_seed=seed)
    sampler = PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                          cfg.nm, result.horizon)
    assert exact_chain_value(sampler, result.policy) == (value, nodes)
    assert result.estimate.lo <= value <= result.estimate.hi
