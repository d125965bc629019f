import math

import numpy as np
import pytest

from bltlsynth.bltl import to_sequential
from bltlsynth.dynamics import Pose, measure
from bltlsynth.mdp import PathSampler
from bltlsynth.uncertainty import build_tube, propagate_stage, stage_terms

from conftest import DT, ENCODER_DELTA, STRAIGHT, symmetric_noise
from oracles import propagate_stage_corners, segment_positions, stage_end, start_pose

ORIGIN = (0.0, 0.0, 0.0, 0.0, 0.0)  # tube state (x, y, theta, d, dtheta) at the origin


class TestRepresentativeNoise:
    """The nominal trajectory's representative noise is the tile midpoint."""

    def test_middle_interval_midpoint_is_zero(self, demo_noise):
        assert demo_noise.right.midpoint(2) == pytest.approx(0.0, abs=1e-18)

    def test_outer_interval_midpoints(self, demo_noise):
        assert demo_noise.right.midpoint(1) == pytest.approx(
            -ENCODER_DELTA, rel=1e-12)
        assert demo_noise.right.midpoint(3) == pytest.approx(
            ENCODER_DELTA, rel=1e-12)
        # the nominal resolution is about 0.0064 rad/s
        assert demo_noise.right.midpoint(3) == pytest.approx(0.0064, abs=1e-4)

    def test_symmetric_model_midpoints_are_antisymmetric(self, demo_noise):
        mids = [demo_noise.left.midpoint(j) for j in (1, 2, 3)]
        assert mids[0] == pytest.approx(-mids[2], rel=1e-12)

    def test_index_out_of_range(self, demo_noise):
        with pytest.raises(IndexError):
            demo_noise.right.midpoint(0)


def enumerate_stage_growth(params, nm, prev_pose, prev_d, prev_dth, action, j_r, j_l):
    """Independent re-derivation of the one-stage worst-case growth: enumerate
    the start-orientation and measured-interval corner combinations with the
    closed-form integrator."""
    u_r, u_l = action
    r_lo, r_hi = nm.right.interval(j_r)
    l_lo, l_hi = nm.left.interval(j_l)
    nominal = stage_end(params, prev_pose, u_r + (r_lo + r_hi) / 2,
                        u_l + (l_lo + l_hi) / 2, params.dt)
    worst_d, worst_th = 0.0, 0.0
    for alpha in {prev_dth, -prev_dth}:
        start = Pose(prev_pose.x, prev_pose.y, prev_pose.theta + alpha)
        for er in (r_lo, r_hi):
            for el in (l_lo, l_hi):
                q = stage_end(params, start, u_r + er, u_l + el, params.dt)
                worst_d = max(worst_d, math.hypot(q.x - nominal.x, q.y - nominal.y))
                diff = abs(nominal.theta - q.theta) % (2 * math.pi)
                worst_th = max(worst_th, min(diff, 2 * math.pi - diff))
    return nominal, prev_d + worst_d, worst_th


class TestPropagateStage:
    def test_straight_stage_growth_matches_enumeration(self, demo_params, demo_noise):
        interval = measure(demo_noise, demo_params, 1, 2, 2)
        state, stage = propagate_stage(ORIGIN, stage_terms(interval, demo_params, demo_noise))
        nominal, d_ref, th_ref = enumerate_stage_growth(
            demo_params, demo_noise, Pose(0, 0, 0), 0.0, 0.0, STRAIGHT, 2, 2)
        x, y, theta, d, dtheta = state
        assert d == pytest.approx(d_ref, abs=1e-15)
        assert dtheta == pytest.approx(th_ref, abs=1e-15)
        assert (x, y, theta) == (nominal.x, nominal.y, nominal.theta)
        # frozen magnitudes for the demo vehicle: about 1.56 mm and 4.79 mrad
        assert d == pytest.approx(1.5566e-3, rel=2e-3)
        assert dtheta == pytest.approx(4.7894e-3, rel=2e-3)
        assert stage[-3:] == (nominal.x, nominal.y, nominal.theta)

    def test_zero_width_noise_means_no_growth(self, demo_params, zero_noise):
        interval = measure(zero_noise, demo_params, 0, 1, 1)
        prev = (0.2, -0.1, 0.4, 0.123, 0.0)
        state, _ = propagate_stage(prev, stage_terms(interval, demo_params, zero_noise))
        assert state[3] == pytest.approx(prev[3], abs=1e-15)
        assert state[4] == 0.0

    def test_radius_never_shrinks(self, demo_params, demo_noise):
        rng = np.random.default_rng(12)
        state = ORIGIN
        for _ in range(9):
            a = int(rng.integers(3))
            interval = measure(demo_noise, demo_params, a,
                               int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            nxt, _ = propagate_stage(state, stage_terms(interval, demo_params, demo_noise))
            assert nxt[3] >= state[3]
            state = nxt

    def test_orientation_spread_feeds_distance_growth(self, demo_params, demo_noise):
        interval = measure(demo_noise, demo_params, 1, 2, 2)
        tilted = (0.0, 0.0, 0.0, 0.0, 0.05)
        terms = stage_terms(interval, demo_params, demo_noise)
        flat, _ = propagate_stage(ORIGIN, terms)
        wide, _ = propagate_stage(tilted, terms)
        assert wide[3] > flat[3] + 0.02


class TestCornerOracle:
    """The float kernel, tube state and stage record, equals eight
    ``make_stage`` corners per stage, each integrated as a ``Pose``, bit for
    bit."""

    ACTIONS = ((3.0, 3.0), (2.0, -2.0), (3.8, 2.1), (0.5, 8.0))  # straight, spin, turns

    @pytest.mark.parametrize("spread", ["zero", "positive"])
    def test_matches_pose_per_corner(self, spread):
        from bltlsynth.dynamics import VehicleParams
        rng = np.random.default_rng(31 if spread == "zero" else 32)
        for case in range(300):
            params = VehicleParams(0.085, 0.295, float(rng.uniform(0.5, 3.0)), self.ACTIONS)
            n = int(rng.integers(1, 4))
            # symmetric tiles hit zero turn rate on the straight action and
            # zero speed on the spin at some corners
            eps_min = -0.1 if case % 2 else float(rng.uniform(-0.5, 0.0))
            delta = 0.2 / n if case % 2 else float(rng.uniform(0.0, 0.4))
            nm = symmetric_noise(eps_min, delta, n, [1.0 / n] * n)
            a = int(rng.integers(len(self.ACTIONS)))
            interval = measure(nm, params, a, int(rng.integers(1, n + 1)),
                               int(rng.integers(1, n + 1)))
            theta = 0.0 if case % 5 == 0 else float(rng.uniform(0, 2 * math.pi))
            dtheta = 0.0 if spread == "zero" else float(rng.uniform(0.0, 4.0))
            prev = (float(rng.normal()), float(rng.normal()), theta,
                    float(rng.uniform(0, 0.2)), dtheta)
            got, got_stage = propagate_stage(prev, stage_terms(interval, params, nm))
            ref, ref_stage = propagate_stage_corners(prev, self.ACTIONS[a], interval,
                                                     params, nm)
            # d, then dtheta, then the nominal pose
            assert got[3] == ref[3]
            assert got[4] == ref[4]
            assert got[:3] == ref[:3]
            assert got_stage == ref_stage

    @pytest.mark.parametrize("spread", ["zero", "positive"])
    def test_sampler_step_table_matches(self, spread, demo_config):
        """Each entry of a sampler's step table, fed to ``propagate_stage``,
        gives the stage and state of eight ``make_stage`` corners."""
        from bltlsynth.dynamics import VehicleParams
        rng = np.random.default_rng(34 if spread == "zero" else 35)
        cfg = demo_config
        spec = to_sequential(cfg.formula, cfg.env.unsafe)
        variants = [(cfg.params, cfg.nm),
                    (VehicleParams(0.085, 0.295, 1.3, self.ACTIONS),
                     symmetric_noise(-0.1, 0.1, 2, [0.5, 0.5]))]
        for params, nm in variants:
            sampler = PathSampler(cfg.env, spec, params, nm, 3)
            assert sampler.terms.keys() == sampler.measured.keys()
            for step, terms in sampler.terms.items():
                interval = sampler.measured[step]
                for _ in range(5):
                    theta = float(rng.uniform(0, 2 * math.pi))
                    dtheta = 0.0 if spread == "zero" else float(rng.uniform(0.0, 4.0))
                    prev = (float(rng.normal()), float(rng.normal()), theta,
                            float(rng.uniform(0, 0.2)), dtheta)
                    assert propagate_stage(prev, terms) == propagate_stage_corners(
                        prev, params.actions[step[0]], interval, params, nm)

    def test_stored_heading_of_two_pi(self, demo_config):
        """A heading stored as 2*pi (a tiny negative angle, wrapped) is not
        wrapped again where a ``Pose`` would not wrap it."""
        cfg = demo_config
        theta = Pose(0, 0, -1e-300).theta
        assert theta == 2 * math.pi
        sampler = PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                              cfg.nm, 3)
        for step, terms in sampler.terms.items():
            for dtheta in (0.0, 0.3):
                prev = (0.4, -0.3, theta, 0.01, dtheta)
                assert propagate_stage(prev, terms) == propagate_stage_corners(
                    prev, cfg.params.actions[step[0]], sampler.measured[step], cfg.params, cfg.nm)

    def test_demo_tubes_match(self, demo_params, demo_noise):
        rng = np.random.default_rng(33)
        for _ in range(100):
            start = Pose(0.3, -0.2, 6.2)
            state = ref = (start.x, start.y, start.theta, 0.0, 0.0)
            for a in rng.integers(0, 3, size=9):
                interval = measure(demo_noise, demo_params, int(a),
                                   int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                state, _ = propagate_stage(state, stage_terms(interval, demo_params, demo_noise))
                ref, _ = propagate_stage_corners(ref, demo_params.actions[a], interval,
                                                 demo_params, demo_noise)
                assert state == ref


class TestBuildTube:
    def test_empty_history_is_a_point(self, demo_params, demo_noise):
        tube = build_tube([], Pose(0, 0, 0), demo_params, demo_noise)
        assert tube.trajectory.stages == ()
        assert tube.radii == ()

    def test_straight_stages_grow_monotonically(self, demo_params, demo_noise):
        history = [(1, measure(demo_noise, demo_params, 1, 2, 2))] * 9
        tube = build_tube(history, Pose(0, 0, 0), demo_params, demo_noise)
        assert len(tube.radii) == 9
        assert all(b > a for a, b in zip(tube.radii, tube.radii[1:]))
        # nominal runs along +x from theta=0
        end = tube.trajectory.stages[-1]
        assert end.y1 == pytest.approx(0.0, abs=1e-12)
        assert end.x1 == pytest.approx(9 * DT * 0.25, rel=1e-9)

    def test_stages_chain_continuously(self, demo_params, demo_noise):
        rng = np.random.default_rng(13)
        history = [(a, measure(demo_noise, demo_params, a, int(rng.integers(1, 4)),
                               int(rng.integers(1, 4))))
                   for a in rng.integers(0, 3, size=7)]
        tube = build_tube(history, Pose(0.5, 0.5, 1.0), demo_params, demo_noise)
        for prev, cur in zip(tube.trajectory.stages, tube.trajectory.stages[1:]):
            assert (cur.x0, cur.y0, cur.theta0) == (prev.x1, prev.y1, prev.theta1)

    def test_mismatched_action_rejected(self, demo_params, demo_noise):
        interval = measure(demo_noise, demo_params, 1, 2, 2)
        with pytest.raises(ValueError, match="does not match"):
            build_tube([(0, interval)], Pose(0, 0, 0), demo_params, demo_noise)

    def test_zero_noise_tube_collapses_to_trajectory(self, demo_params, zero_noise):
        history = [(1, measure(zero_noise, demo_params, 1, 1, 1))] * 5
        tube = build_tube(history, Pose(0, 0, 0), demo_params, zero_noise)
        assert all(d == 0.0 for d in tube.radii)


def inner_positions(params, q0, wheel_speeds, times_per_stage):
    """Sample an inner trajectory (one constant wheel-speed pair per stage)
    at a grid of local times; returns stage-ordered arrays."""
    out = []
    pose = q0
    for w_r, w_l in wheel_speeds:
        xs, ys = segment_positions(params, pose, w_r, w_l, times_per_stage)
        out.append((xs, ys))
        pose = stage_end(params, pose, w_r, w_l, params.dt)
    return out


class TestContainment:
    def test_inner_trajectories_stay_inside_tube(self, demo_params, demo_noise):
        # Monte-Carlo spot check of the worst-case propagation (the full-size
        # sweep lives in the acceptance suite)
        rng = np.random.default_rng(99)
        local_ts = np.linspace(0.0, DT, 17)
        for _ in range(150):
            history = [(a, measure(demo_noise, demo_params, a,
                                   int(rng.integers(1, 4)), int(rng.integers(1, 4))))
                       for a in rng.integers(0, 3, size=5)]
            tube = build_tube(history, Pose(0, 0, 0), demo_params, demo_noise)
            for _ in range(3):
                speeds = [(rng.uniform(m.r_lo, m.r_hi), rng.uniform(m.l_lo, m.l_hi))
                          for _, m in history]
                pose = Pose(0, 0, 0)
                for k, (w_r, w_l) in enumerate(speeds):
                    xs, ys = segment_positions(demo_params, pose, w_r, w_l, local_ts)
                    st = tube.trajectory.stages[k]
                    nx, ny = segment_positions(demo_params, start_pose(st), st.w_r, st.w_l,
                                               local_ts)
                    dist = np.hypot(xs - nx, ys - ny)
                    assert (dist <= tube.radii[k] + 1e-9).all()
                    pose = stage_end(demo_params, pose, w_r, w_l, DT)

    def test_midpoint_inner_equals_nominal(self, demo_params, demo_noise):
        history = [(1, measure(demo_noise, demo_params, 1, 2, 2))] * 4
        tube = build_tube(history, Pose(0, 0, 0), demo_params, demo_noise)
        pose = Pose(0, 0, 0)
        for k, (_, m) in enumerate(history):
            w_r = (m.r_lo + m.r_hi) / 2
            w_l = (m.l_lo + m.l_hi) / 2
            pose = stage_end(demo_params, pose, w_r, w_l, DT)
            st = tube.trajectory.stages[k]
            assert pose.x == pytest.approx(st.x1, abs=1e-12)
            assert pose.y == pytest.approx(st.y1, abs=1e-12)
