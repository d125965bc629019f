import io
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from bltlsynth.bltl import check_sequential, parse_formula, to_sequential
from bltlsynth.dynamics import OMEGA_STRAIGHT_EPS, Pose, VehicleParams, measure
from bltlsynth.env import Rect
from bltlsynth.tracegen import (Trajectory, UncertaintyTube, _inside, _touches,
                                read_trace_csv, read_trajectory_csv, trace_from_trajectory,
                                trace_from_tube, write_trajectory_csv)
from bltlsynth.uncertainty import build_tube

from conftest import DT, STRAIGHT, TURN_LEFT, simple_env
from oracles import (dense_trace_disagreements, end_pose, episode_rng, integrate_pose,
                     make_stage, random_trace_case, sample_history_scalar, start_pose,
                     write_trace_csv)

BOX = Rect(0.0, 0.0, 2.0, 1.0)


class TestDiscPredicates:
    """The closed-disc predicates of the event-time kernel: containment in a
    closed rectangle (``_inside``) and contact with one (``_touches``)."""

    def test_containment_centered(self):
        assert _inside(BOX, 1.0, 0.5, 0.4)

    def test_zero_radius_on_boundary_contained(self):
        assert _inside(BOX, 0.0, 0.5, 0.0)

    def test_oversized_disc_not_contained(self):
        assert not _inside(BOX, 1.0, 0.5, 0.51)

    def test_intersection_center_inside(self):
        assert _touches(BOX, 1.0, 0.5, 0.0)
        assert _touches(BOX, 1.0, 0.5, 5.0)

    def test_intersection_at_exact_distance(self):
        assert _touches(BOX, -0.3, 0.5, 0.3)

    def test_separation_beyond_radius(self):
        assert not _touches(BOX, -0.3 - 1e-6, 0.5, 0.3)

    def test_corner_distance(self):
        d = math.hypot(0.3, 0.4)
        assert _touches(BOX, -0.3, 1.4, d + 1e-12)
        assert not _touches(BOX, -0.3, 1.4, d - 1e-6)


def straight_trajectory(params, n_stages, start=Pose(0.0, 0.0, 0.0)):
    stages = []
    pose = start
    for _ in range(n_stages):
        st = make_stage(params, pose, *STRAIGHT, params.dt)
        stages.append(st)
        pose = end_pose(st)
    return Trajectory(tuple(stages))


class TestTraceFromTrajectory:
    def test_single_crossing_event_times(self, demo_params):
        env = simple_env([("a", (1.0, -1.0, 2.0, 1.0))])
        traj = straight_trajectory(demo_params, 5)
        trace = trace_from_trajectory(traj, env)
        assert [label for label, _ in trace] == [None, "a", None]
        assert trace[0][1] == pytest.approx(4.0, abs=1e-5)
        assert trace[1][1] == pytest.approx(4.0, abs=1e-5)
        assert trace[2][1] == pytest.approx(5 * DT - 8.0, abs=1e-5)

    def test_never_entering_any_region(self, demo_params):
        env = simple_env([("a", (1.0, 2.0, 2.0, 3.0))])
        traj = straight_trajectory(demo_params, 3)
        assert trace_from_trajectory(traj, env) == [(None, pytest.approx(3 * DT))]

    def test_starting_inside_and_staying(self, demo_params):
        env = simple_env([("a", (-1.0, -1.0, 9.0, 1.0))])
        traj = straight_trajectory(demo_params, 4)
        trace = trace_from_trajectory(traj, env)
        assert trace == [("a", pytest.approx(4 * DT))]

    def test_unsafe_region_labeled_like_any_other(self, demo_params):
        env = simple_env([("u", (1.0, -1.0, 2.0, 1.0))], start=(0.0, 0.0, 0.0))
        traj = straight_trajectory(demo_params, 5)
        trace = trace_from_trajectory(traj, env)
        assert [label for label, _ in trace] == [None, "u", None]

    def test_same_label_union_is_one_visit(self, demo_params):
        # two touching rectangles with the same label read as one region set
        env = simple_env([("a", (1.0, -1.0, 1.5, 1.0)), ("a", (1.5, -1.0, 2.0, 1.0))])
        traj = straight_trajectory(demo_params, 5)
        trace = trace_from_trajectory(traj, env)
        assert [label for label, _ in trace] == [None, "a", None]
        assert trace[1][1] == pytest.approx(4.0, abs=1e-5)

    def test_adjacent_distinct_labels_insert_gap_state(self, demo_params):
        env = simple_env([("a", (1.0, -1.0, 1.5, 1.0)), ("b", (1.5, -1.0, 2.0, 1.0))])
        traj = straight_trajectory(demo_params, 5)
        trace = trace_from_trajectory(traj, env)
        assert [label for label, _ in trace] == [None, "a", None, "b", None]
        assert trace[2][1] < 1e-5

    def test_duration_conservation_and_alternation(self, demo_params):
        rng = np.random.default_rng(6)
        env = simple_env([("a", (0.5, -0.8, 1.4, 0.8)), ("b", (2.0, -0.5, 3.0, 1.5)),
                          ("u", (1.0, 1.2, 2.0, 2.2))])
        for _ in range(25):
            pose = Pose(0.0, 0.0, float(rng.uniform(0, 2 * math.pi)))
            stages = []
            for _ in range(6):
                action = demo_params.actions[int(rng.integers(3))]
                st = make_stage(demo_params, pose, *action, demo_params.dt)
                stages.append(st)
                pose = end_pose(st)
            trace = trace_from_trajectory(Trajectory(tuple(stages)), env)
            assert abs(sum(t for _, t in trace) - 6 * DT) < 1e-9
            for (l1, _), (l2, _) in zip(trace, trace[1:]):
                assert l1 != l2


def manual_tube(params, n_stages, radius):
    """Straight-line tube with a constant hand-set radius."""
    traj = straight_trajectory(params, n_stages)
    return UncertaintyTube(traj, tuple([radius] * n_stages), tuple([0.0] * n_stages))


class TestTraceFromTube:
    def test_containment_requires_margin(self, demo_params):
        env = simple_env([("a", (1.0, -1.0, 2.0, 1.0))])
        tube = manual_tube(demo_params, 5, 0.1)
        trace = trace_from_tube(tube, env)
        assert [label for label, _ in trace] == [None, "a", None]
        # entry late by radius/speed, exit early by the same amount
        assert trace[0][1] == pytest.approx(4.0 + 0.1 / 0.25, abs=1e-4)
        assert trace[1][1] == pytest.approx(4.0 - 2 * 0.1 / 0.25, abs=1e-4)

    def test_oversized_disc_never_contained(self, demo_params):
        env = simple_env([("a", (1.0, -1.0, 2.0, 1.0))])
        tube = manual_tube(demo_params, 5, 1.01)
        assert trace_from_tube(tube, env) == [(None, pytest.approx(5 * DT))]

    def test_constant_containment(self, demo_params):
        env = simple_env([("a", (-1.0, -1.0, 9.0, 1.0))])
        tube = manual_tube(demo_params, 4, 0.05)
        trace = trace_from_tube(tube, env)
        assert [label for label, _ in trace] == ["a"]

    def test_unsafe_on_contact_not_containment(self, demo_params):
        env = simple_env([("u", (1.0, -1.0, 2.0, 1.0))])
        tube = manual_tube(demo_params, 5, 0.1)
        trace = trace_from_tube(tube, env)
        assert [label for label, _ in trace] == [None, "u", None]
        assert trace[0][1] == pytest.approx(4.0 - 0.1 / 0.25, abs=1e-4)

    def test_unsafe_wins_exact_tie(self, demo_params):
        # moving along y=0 at 0.25 m/s with disc radius 0.5: containment in
        # "a" starts at x=1.5 (t=6.000 s), and so does contact with "u", whose
        # corner sits on a's top edge at x=1.5.  The tie goes to unsafe.
        env = simple_env([("a", (1.0, -0.5, 6.0, 0.5)), ("u", (1.5, 0.5, 1.7, 1.2))],
                         bounds=(-10, -10, 10, 10))
        tube = manual_tube(demo_params, 5, 0.5)
        trace = trace_from_tube(tube, env)
        labels = [label for label, _ in trace]
        assert labels[:2] == [None, "u"]
        assert trace[0][1] == pytest.approx(6.0, abs=1e-9)
        assert trace[1][1] == pytest.approx(0.8, abs=1e-9)

    def test_earlier_containment_in_different_step_wins(self, demo_params):
        # same layout but contact starts at x=1.6 (t=6.4 s), after
        # containment: the earlier containment wins
        env = simple_env([("a", (1.0, -0.5, 6.0, 0.5)), ("u", (1.6, 0.5, 1.8, 1.2))],
                         bounds=(-10, -10, 10, 10))
        tube = manual_tube(demo_params, 5, 0.5)
        trace = trace_from_tube(tube, env)
        assert [label for label, _ in trace][:2] == [None, "a"]

    def test_zero_radius_matches_point_trace(self, demo_params):
        env = simple_env([("a", (0.9, -0.7, 1.7, 0.7)), ("b", (2.2, -0.7, 3.0, 0.7))])
        traj = straight_trajectory(demo_params, 5)
        tube = UncertaintyTube(traj, tuple([0.0] * 5), tuple([0.0] * 5))
        pt = trace_from_trajectory(traj, env)
        tb = trace_from_tube(tube, env)
        assert [l for l, _ in pt] == [l for l, _ in tb]
        for (_, a), (_, b) in zip(pt, tb):
            assert a == pytest.approx(b, abs=1e-5)

    def test_straddling_two_same_label_regions_is_not_contained(self, demo_params):
        env = simple_env([("a", (1.0, -1.0, 1.5, 1.0)), ("a", (1.5, -1.0, 2.0, 1.0))])
        tube = manual_tube(demo_params, 5, 0.1)
        trace = trace_from_tube(tube, env)
        # the disc fits in each half separately but never across the seam
        assert [label for label, _ in trace] == [None, "a", None, "a", None]

    def test_duration_conservation(self, demo_params, demo_noise):
        rng = np.random.default_rng(8)
        env = simple_env([("a", (0.5, -0.8, 1.4, 0.8)), ("u", (2.0, -0.5, 3.0, 1.5))])
        for _ in range(15):
            history = [(a, measure(demo_noise, demo_params, a, jr, jl))
                       for a, jr, jl in ((int(rng.integers(3)), int(rng.integers(1, 4)),
                                          int(rng.integers(1, 4))) for _ in range(5))]
            tube = build_tube(history, Pose(0, 0, 0), demo_params, demo_noise)
            trace = trace_from_tube(tube, env)
            assert abs(sum(t for _, t in trace) - 5 * DT) < 1e-9
            for (l1, _), (l2, _) in zip(trace, trace[1:]):
                assert l1 != l2


class TestUnsafeCutsGoal:
    """Unsafe contact that starts during a goal state ends that state.

    Goal "a" shares its top edge y = 0 with unsafe "u" = [0, 0.3] x [0, 1].
    One straight 2.6 s stage at 0.6 m/s from x = -0.8: the radius-0.1 disc
    centred on y = -0.1 stays inside "a" and touches "u" while x is in
    [0, 0.3], i.e. from t = 4/3 s to t = 11/6 s; so does the point on y = 0.
    """

    PARAMS = VehicleParams(0.1, 0.3, 2.6, ((6.0, 6.0),))
    REGIONS = [("a", (-1.0, -1.0, 1.0, 0.0)), ("u", (0.0, 0.0, 0.3, 1.0))]

    def stage_at(self, y):
        env = simple_env(self.REGIONS, start=(-0.8, y, 0.0))
        traj = Trajectory((make_stage(self.PARAMS, env.initial_pose, 6.0, 6.0, 2.6),))
        return env, traj

    def assert_cut(self, trace):
        assert [label for label, _ in trace] == ["a", None, "u", None, "a"]
        for (_, got), want in zip(trace, (0.8 / 0.6, 0.0, 0.5, 0.0, 2.6 - 1.1 / 0.6)):
            assert got == pytest.approx(want, abs=1e-9)
        # a two-second dwell in "a" from the start no longer passes
        spec = to_sequential(parse_formula("!u U[<=1] G[<=2] a"), "u")
        assert not check_sequential(trace, spec)

    def test_tube_contact_cuts_containment(self):
        env, traj = self.stage_at(-0.1)
        self.assert_cut(trace_from_tube(UncertaintyTube(traj, (0.1,), (0.0,)), env))
        # the centre line itself never meets "u"
        assert trace_from_trajectory(traj, env) == [("a", pytest.approx(2.6))]

    def test_point_on_shared_edge_cuts_goal(self):
        env, traj = self.stage_at(0.0)
        self.assert_cut(trace_from_trajectory(traj, env))


class TestExactEvents:
    """Events shorter than any sampling step, and a dense-sampling oracle."""

    def test_thin_unsafe_strip_is_crossed(self, demo_params):
        # 0.5 mm strip crossed at 0.25 m/s: a 2 ms unsafe visit
        env = simple_env([("u", (0.3, -1.0, 0.3005, 1.0))])
        traj = straight_trajectory(demo_params, 1)
        tube = UncertaintyTube(traj, (0.0,), (0.0,))
        for trace in (trace_from_trajectory(traj, env), trace_from_tube(tube, env)):
            assert [label for label, _ in trace] == [None, "u", None]
            assert trace[0][1] == pytest.approx(1.2, abs=1e-9)
            assert trace[1][1] == pytest.approx(0.002, abs=1e-9)

    def test_short_containment_before_radius_grows(self, demo_params):
        # the radius-0.1 disc fits in "a" from x=0.6495 (t=2.598 s) to the
        # stage end at t=2.6 s; the radius-0.3 disc of stage 2 never fits
        env = simple_env([("a", (0.5495, -1.0, 1.0, 1.0))])
        tube = UncertaintyTube(straight_trajectory(demo_params, 2), (0.1, 0.3), (0.0, 0.0))
        trace = trace_from_tube(tube, env)
        assert [label for label, _ in trace] == [None, "a", None]
        assert trace[0][1] == pytest.approx(2.598, abs=1e-9)
        assert trace[1][1] == pytest.approx(0.002, abs=1e-9)

    @pytest.mark.parametrize("tube", [False, True], ids=["point", "tube"])
    def test_random_geometry_matches_dense_sampling(self, demo_params, tube):
        rng = np.random.default_rng(2468 if tube else 1357)
        for _ in range(120):
            traj, radii, env = random_trace_case(rng, demo_params, tube)
            with time_limit(5.0):
                if tube:
                    spreads = (0.0,) * len(radii)
                    trace = trace_from_tube(UncertaintyTube(traj, radii, spreads), env)
                else:
                    trace = trace_from_trajectory(traj, env)
            total = sum(st.duration for st in traj.stages)
            assert sum(t for _, t in trace) == pytest.approx(total, abs=1e-9)
            assert all(t >= 0.0 for _, t in trace)
            for (l1, _), (l2, _) in zip(trace, trace[1:]):
                assert l1 is None or l2 is None
                assert l1 != l2
            assert dense_trace_disagreements(trace, traj, radii, env, tube) == []


@contextmanager
def time_limit(seconds):
    """Fail the enclosed block when it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"trace did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCourierMissionReconstruction:
    """A compact pickup/test/dropoff corridor whose straight crossing yields
    the canonical six-state trace shape and satisfies the courier mission."""

    def build(self):
        return simple_env(
            [("p", (1.0, -1.0, 1.3, 1.0)), ("t", (1.55, -1.0, 1.75, 1.0)),
             ("d", (2.0, -1.0, 2.5, 1.0)), ("u", (4.0, 2.0, 5.0, 3.0))],
            props=("u", "p", "t", "d"))

    def test_point_trace_structure_and_verdict(self, demo_params):
        from bltlsynth.bltl import check_sequential, parse_formula, to_sequential
        from conftest import COURIER_FORMULA
        env = self.build()
        traj = straight_trajectory(demo_params, 5)
        trace = trace_from_trajectory(traj, env)
        assert [l for l, _ in trace] == [None, "p", None, "t", None, "d", None]
        spec = to_sequential(parse_formula(COURIER_FORMULA), "u")
        assert check_sequential(trace, spec)

    def test_tube_trace_structure_and_verdict(self, demo_params):
        from bltlsynth.bltl import check_sequential, parse_formula, to_sequential
        from conftest import COURIER_FORMULA
        env = self.build()
        tube = manual_tube(demo_params, 5, 0.02)
        trace = trace_from_tube(tube, env)
        assert [l for l, _ in trace] == [None, "p", None, "t", None, "d", None]
        spec = to_sequential(parse_formula(COURIER_FORMULA), "u")
        assert check_sequential(trace, spec)


class TestDwellDominance:
    def test_tube_visits_never_outlast_inner_visits(self, demo_config):
        # for paths whose tube and inner traces visit the same label sequence,
        # each tube dwell is a lower bound on the matched inner dwell
        from bltlsynth.bltl import to_sequential
        from bltlsynth.mdp import PathSampler
        from bltlsynth.synthesis import uniform_policy
        cfg = demo_config
        spec = to_sequential(cfg.formula, cfg.env.unsafe)
        sampler = PathSampler(cfg.env, spec, cfg.params, cfg.nm, 9)
        rng = np.random.default_rng(15)
        compared = 0
        unsafe = cfg.env.unsafe
        for i in range(60):
            path = sampler.finish(sample_history_scalar(uniform_policy(3), cfg.nm, 9,
                                                        episode_rng(15, 0, 0, i)))
            # containment dominance concerns goal labels only; the unsafe
            # label is contact-based and deliberately wider on the tube
            tube_visits = [(l, t) for l, t in path.trace
                           if l is not None and l != unsafe]
            if not tube_visits:
                continue
            pose = cfg.env.initial_pose
            stages = []
            for _, m in sampler.measured_history(path.state):
                w_r = rng.uniform(m.r_lo, m.r_hi)
                w_l = rng.uniform(m.l_lo, m.l_hi)
                st = make_stage(cfg.params, pose, w_r, w_l, cfg.params.dt)
                stages.append(st)
                pose = end_pose(st)
            inner = trace_from_trajectory(Trajectory(tuple(stages)), cfg.env)
            inner_visits = [(l, t) for l, t in inner
                            if l is not None and l != unsafe]
            if [l for l, _ in inner_visits] != [l for l, _ in tube_visits]:
                continue
            compared += 1
            for (_, tube_dwell), (_, inner_dwell) in zip(tube_visits, inner_visits):
                assert tube_dwell <= inner_dwell + 1e-5
        assert compared >= 5


class TestCsv:
    def test_trace_round_trip(self):
        trace = [(None, 6.12), ("p", 0.75), (None, 0.44), ("t", 0.61)]
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        buf.seek(0)
        assert read_trace_csv(buf) == trace

    def test_trace_header_required(self):
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(io.StringIO("p,0.75\n"))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no states"):
            read_trace_csv(io.StringIO("label,duration\n"))

    def test_trajectory_round_trip(self, demo_params):
        traj = straight_trajectory(demo_params, 2)
        buf = io.StringIO()
        write_trajectory_csv(buf, traj)
        buf.seek(0)
        rows = read_trajectory_csv(buf)
        assert len(rows) == 2 * 32 + 1
        assert rows[0][:3] == (0.0, 0.0, 0.0)
        assert rows[32][0] == pytest.approx(DT)
        assert rows[-1][0] == pytest.approx(2 * DT)
        assert rows[-1][1] == pytest.approx(2 * DT * 0.25)
        assert all(row[4] == 0.0 for row in rows)


class TestTrajectoryType:
    def test_stage_chaining_validated(self, demo_params):
        s1 = make_stage(demo_params, Pose(0, 0, 0), *STRAIGHT, DT)
        s2 = make_stage(demo_params, Pose(5, 5, 1), *STRAIGHT, DT)
        with pytest.raises(ValueError, match="chain"):
            Trajectory((s1, s2))

    def test_tube_radius_monotonicity_validated(self, demo_params):
        traj = straight_trajectory(demo_params, 2)
        with pytest.raises(ValueError, match="non-decreasing"):
            UncertaintyTube(traj, (0.2, 0.1), (0.0, 0.0))

    def test_turn_stage_end_matches_integrator(self, demo_params):
        st = make_stage(demo_params, Pose(0, 0, 0), *TURN_LEFT, DT)
        assert st.theta1 == pytest.approx(0.5 * DT, rel=1e-12)
        x, y = st.position_at(DT)
        assert x == pytest.approx(st.x1, abs=1e-12)
        assert y == pytest.approx(st.y1, abs=1e-12)

    def test_position_at_is_the_body_integrator(self, demo_config, zero_noise):
        """Chain and closed-loop stages, straight and turning, place every
        point where the ``Pose`` integrator puts the stage's start pose."""
        from bltlsynth.bltl import to_sequential
        from bltlsynth.mdp import EMPTY_HISTORY, PathSampler
        from bltlsynth.synthesis import Policy, _closed_loop_stages, uniform_policy
        cfg = demo_config
        spec = to_sequential(cfg.formula, cfg.env.unsafe)
        sampler = PathSampler(cfg.env, spec, cfg.params, cfg.nm, 9)
        chain = list(sampler.finish(((1, 2, 2), (0, 1, 3), (1, 1, 1))).tube.trajectory.stages)
        closed_loop = []
        policy = uniform_policy(3)
        straight_first = Policy(3, {EMPTY_HISTORY: 0}, actions=[1])  # then turns left
        for i in range(5):
            sample = sampler.finish(sample_history_scalar(policy, cfg.nm, 9,
                                                          episode_rng(8, 0, 0, i)))
            chain += sample.tube.trajectory.stages
            for nm in (cfg.nm, zero_noise):
                closed_loop += [st for st, _ in _closed_loop_stages(
                    straight_first, cfg.env, cfg.params, nm, 9, episode_rng(8, 2, 0, i))]
        for stages in (chain, closed_loop):
            straight = [abs(st.omega) < OMEGA_STRAIGHT_EPS for st in stages]
            assert any(straight) and not all(straight)
        for st in chain + closed_loop:
            for t in (0.0, st.duration / 3, st.duration / 2, st.duration):
                pose = integrate_pose(start_pose(st), st.v, st.omega, t)
                assert st.position_at(t) == (pose.x, pose.y)
