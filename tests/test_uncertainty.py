import math

import numpy as np
import pytest

from bltlsynth.bltl import to_sequential
from bltlsynth.config import builtin_config_path, config_from_dict
from bltlsynth.dynamics import Pose, measure, wheel_to_body
from bltlsynth.mdp import PathSampler
from bltlsynth.uncertainty import build_tube, propagate_stage, stage_terms

from conftest import DT, ENCODER_DELTA, STRAIGHT, load_demo_config_doc, symmetric_noise
from oracles import (chained_positions, propagate_stage_corners, segment_positions,
                     segment_positions_batch, stage_end, start_pose)

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
        # the closed form bounds the corners' stage-end deviation; with no
        # start spread, the heading spread is the corners' exactly
        assert d >= d_ref
        assert dtheta == pytest.approx(th_ref, abs=1e-15)
        assert (x, y, theta) == (nominal.x, nominal.y, nominal.theta)
        # frozen magnitudes for the demo vehicle: about 2.26 mm (the corners
        # reach 1.56 mm at the stage end) and 4.79 mrad
        assert d == pytest.approx(2.2631e-3, rel=2e-3)
        assert d_ref == pytest.approx(1.5566e-3, rel=2e-3)
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


def assert_covers_corners(got, ref):
    """The kernel's nominal pose and stage equal the corner oracle's bit for
    bit; its radius and spread are at least the oracle's stage-end corner
    deviations (up to rounding, which can tie them with no turn-rate
    spread)."""
    (state, stage), (ref_state, ref_stage) = got, ref
    assert state[:3] == ref_state[:3]
    assert stage == ref_stage
    assert state[3] >= ref_state[3] - 1e-12
    assert state[4] >= ref_state[4] - 1e-12


class TestCornerOracle:
    """Eight ``make_stage`` corners per stage, each integrated as a ``Pose``,
    give the float kernel's nominal pose and stage record, and a lower bound
    on its radius and spread."""

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
            assert_covers_corners(
                propagate_stage(prev, stage_terms(interval, params, nm)),
                propagate_stage_corners(prev, self.ACTIONS[a], interval, params, nm))

    @pytest.mark.parametrize("spread", ["zero", "positive"])
    def test_sampler_step_table_matches(self, spread, demo_config):
        """Each entry of a sampler's step table, fed to ``propagate_stage``,
        gives the stage of eight ``make_stage`` corners and covers them."""
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
                    assert_covers_corners(propagate_stage(prev, terms), propagate_stage_corners(
                        prev, params.actions[step[0]], interval, params, nm))

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
                assert_covers_corners(propagate_stage(prev, terms), propagate_stage_corners(
                    prev, cfg.params.actions[step[0]], sampler.measured[step], cfg.params,
                    cfg.nm))

    def test_demo_tubes_match(self, demo_params, demo_noise):
        """Chained over whole demo tubes, each side from its own previous
        state, the kernel still covers the corners: its spread stays at least
        theirs, and its growth does not shrink as the spread grows."""
        rng = np.random.default_rng(33)
        for _ in range(100):
            start = Pose(0.3, -0.2, 6.2)
            state = ref = (start.x, start.y, start.theta, 0.0, 0.0)
            for a in rng.integers(0, 3, size=9):
                interval = measure(demo_noise, demo_params, int(a),
                                   int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                got = propagate_stage(state, stage_terms(interval, demo_params, demo_noise))
                want = propagate_stage_corners(ref, demo_params.actions[a], interval,
                                               demo_params, demo_noise)
                assert_covers_corners(got, want)
                state, ref = got[0], want[0]


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


def loaded_config(vehicle, tile_width):
    """The demo config with the given vehicle fields and three tiles of
    ``tile_width`` rad/s per wheel (masses 1/4, 1/2, 1/4), centred on zero
    noise, read by the config loader."""
    doc = load_demo_config_doc()
    doc["vehicle"].update(vehicle)
    wheel = {"eps_min": -1.5 * tile_width, "delta": tile_width, "n": 3,
             "probs": [0.25, 0.5, 0.25]}
    doc["noise"] = {"right": wheel, "left": dict(wheel)}
    return config_from_dict(doc, base_dir=builtin_config_path().parent)


def inner_wheel_speeds(history, n, rng):
    """Wheel speeds (w_r, w_l), (chains, stages) arrays, of trajectories
    inside a history's measured intervals: the four chains that hold one
    wheel-speed corner throughout, ``n`` chains of a random corner per stage
    and ``n`` of uniform speeds inside the intervals."""
    r = np.array([(m.r_lo, m.r_hi) for _, m in history])
    l = np.array([(m.l_lo, m.l_hi) for _, m in history])
    k = len(history)
    cols = np.arange(k)
    fixed = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    pick_r = np.vstack([np.repeat(fixed[:, :1], k, axis=1), rng.integers(2, size=(n, k))])
    pick_l = np.vstack([np.repeat(fixed[:, 1:], k, axis=1), rng.integers(2, size=(n, k))])
    u_r, u_l = rng.random((n, k)), rng.random((n, k))
    w_r = np.vstack([r[cols, pick_r], r[:, 0] + u_r * (r[:, 1] - r[:, 0])])
    w_l = np.vstack([l[cols, pick_l], l[:, 0] + u_l * (l[:, 1] - l[:, 0])])
    return w_r, w_l


def wrapped_diff(a, b):
    diff = np.abs(a - b) % (2 * math.pi)
    return np.minimum(diff, 2 * math.pi - diff)


class TestSoundness:
    """Every trajectory inside the measured intervals stays inside the tube
    at every time of every stage: its distance to the nominal position is at
    most that stage's radius, and its heading error at most its spread.

    The configs are ones the loader accepts where a stage-end radius is not
    enough: sharp turns, spin in place, wide noise and a long stage.  The
    trajectories start from the exact initial pose and hold, per stage,
    wheel speeds at the measured interval's corners or uniform inside it."""

    CASES = {
        "sharp-turns": ({"actions": [[8.0, 0.5], [0.5, 8.0]]}, 0.1),
        "spin-in-place": ({"actions": [[4.0, -4.0], [-4.0, 4.0], [2.0, 2.0]]}, 0.2),
        "wide-noise": ({}, 0.3),
        "long-dt": ({"dt": 10.0}, 0.1),
    }
    TOL = 1e-9

    def check(self, case, seed, histories, stages, chains, times):
        vehicle, tile_width = self.CASES[case]
        cfg = loaded_config(vehicle, tile_width)
        params, nm, q0 = cfg.params, cfg.nm, cfg.env.initial_pose
        rng = np.random.default_rng(seed)
        taus = np.linspace(0.0, params.dt, times)
        for _ in range(histories):
            history = []
            for _ in range(stages):
                a = int(rng.integers(len(params.actions)))
                history.append((a, measure(nm, params, a, int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4)))))
            tube = build_tube(history, q0, params, nm)
            st = np.array(tube.trajectory.stages)
            nx, ny = segment_positions_batch(params, st[:, 0], st[:, 1], st[:, 2],
                                             st[:, 3], st[:, 4], taus)
            n_th = st[:, 2:3] + st[:, 6:7] * taus
            w_r, w_l = inner_wheel_speeds(history, chains, rng)
            xs, ys = chained_positions(params, q0, w_r, w_l, taus)
            omega = wheel_to_body(params, w_r, w_l)[1]
            th0 = q0.theta + np.cumsum(omega * params.dt, axis=1) - omega * params.dt
            th = th0[..., None] + omega[..., None] * taus
            dist = np.hypot(xs - nx, ys - ny)
            radii = np.array(tube.radii)[:, None]
            spreads = np.array(tube.dthetas)[:, None]
            assert (dist <= radii + self.TOL).all(), (case, float((dist - radii).max()))
            assert (wrapped_diff(th, n_th) <= spreads + self.TOL).all(), case

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inner_trajectories_stay_inside(self, case):
        self.check(case, seed=41, histories=25, stages=5, chains=16, times=41)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dense_sweep(self, case):
        self.check(case, seed=42, histories=300, stages=9, chains=64, times=201)
