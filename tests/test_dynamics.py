import math

import numpy as np
import pytest

from bltlsynth.dynamics import (OMEGA_STRAIGHT_EPS, Pose, VehicleParams,
                                WheelNoise, angle_diff, integrate_body, measure, wheel_to_body,
                                wrap_angle)

from conftest import DT, ENCODER_DELTA, STRAIGHT, TURN_LEFT, TURN_RIGHT, symmetric_noise
from oracles import integrate_pose, rk4_pose, segment_positions, tile_by_cumsum


def body_end(params, q0, w_r, w_l, tau):
    """The end pose of wheel speeds (w_r, w_l) held for tau seconds from q0:
    ``integrate_body`` of their body motion."""
    return Pose(*integrate_body(q0.x, q0.y, q0.theta, *wheel_to_body(params, w_r, w_l), tau))


class TestWheelToBody:
    def test_turn_left_quarter_speed(self, demo_params):
        v, om = wheel_to_body(demo_params, *TURN_LEFT)
        assert v == pytest.approx(0.25, abs=1e-12)
        assert om == pytest.approx(0.5, abs=1e-12)

    def test_straight(self, demo_params):
        v, om = wheel_to_body(demo_params, *STRAIGHT)
        assert v == pytest.approx(0.25, abs=1e-12)
        assert om == pytest.approx(0.0, abs=1e-12)

    def test_opposite_wheels_rotate_in_place(self, demo_params):
        w = 1.7
        v, om = wheel_to_body(demo_params, w, -w)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert om == pytest.approx(demo_params.wheel_radius * 2 * w
                                   / demo_params.wheel_separation, rel=1e-12)


class TestIntegrateSegment:
    """The end pose of a constant wheel-speed stage, the closed form
    ``integrate_body`` of the wheel speeds' body motion."""

    def test_straight_line(self, demo_params):
        q = body_end(demo_params, Pose(0, 0, 0), *STRAIGHT, DT)
        assert q.x == pytest.approx(0.25 * DT, abs=1e-12)
        assert q.y == pytest.approx(0.0, abs=1e-12)
        assert q.theta == 0.0

    def test_equal_wheels_keep_heading(self, demo_params):
        q = body_end(demo_params, Pose(0, 0, 0), 2.2, 2.2, 1.7)
        assert q.y == 0.0
        assert q.theta == 0.0

    def test_matches_rk4_on_slightly_curved_segment(self, demo_params):
        w_r = STRAIGHT[0] + 0.0032
        w_l = STRAIGHT[1] - 0.0032
        q = body_end(demo_params, Pose(0, 0, 0), w_r, w_l, DT)
        x, y, th = rk4_pose(demo_params, Pose(0, 0, 0), w_r, w_l, DT)
        assert q.x == pytest.approx(x, abs=1e-9)
        assert q.y == pytest.approx(y, abs=1e-9)
        assert angle_diff(q.theta, wrap_angle(th)) < 1e-9

    def test_flow_property(self, demo_params):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q0 = Pose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            w_r, w_l = rng.uniform(1.5, 4.5, size=2)
            t1, t2 = rng.uniform(0, 3, size=2)
            a = body_end(demo_params, body_end(demo_params, q0, w_r, w_l, t1), w_r, w_l, t2)
            b = body_end(demo_params, q0, w_r, w_l, t1 + t2)
            assert a.x == pytest.approx(b.x, abs=1e-12)
            assert a.y == pytest.approx(b.y, abs=1e-12)
            assert angle_diff(a.theta, b.theta) < 1e-12

    def test_rk4_agreement_over_actions_and_noise(self, demo_params, demo_noise):
        r, l = demo_noise.right, demo_noise.left
        for action in demo_params.actions:
            for eps_r in (r.eps_min, 0.0, r.eps_min + r.n * r.delta):
                for eps_l in (l.eps_min, 0.0, l.eps_min + l.n * l.delta):
                    w_r, w_l = action[0] + eps_r, action[1] + eps_l
                    q = body_end(demo_params, Pose(0.3, -0.2, 1.1), w_r, w_l, DT)
                    x, y, th = rk4_pose(demo_params, Pose(0.3, -0.2, 1.1), w_r, w_l, DT,
                                        step=1e-3)
                    assert q.x == pytest.approx(x, abs=1e-9)
                    assert q.y == pytest.approx(y, abs=1e-9)
                    assert angle_diff(q.theta, wrap_angle(th)) < 1e-9

    def test_segment_positions_matches_scalar(self, demo_params):
        taus = np.linspace(0.0, DT, 17)
        xs, ys = segment_positions(demo_params, Pose(0.1, 0.2, 0.9), *TURN_RIGHT, taus)
        for t, x, y in zip(taus, xs, ys):
            q = body_end(demo_params, Pose(0.1, 0.2, 0.9), *TURN_RIGHT, float(t))
            assert x == pytest.approx(q.x, abs=1e-12)
            assert y == pytest.approx(q.y, abs=1e-12)

    def test_negative_tau_rejected(self, demo_params):
        with pytest.raises(ValueError):
            body_end(demo_params, Pose(0, 0, 0), 1.0, 1.0, -0.1)

    def test_floats_match_the_pose_integrator(self):
        """The float integrator equals the ``Pose`` form bit for bit: the
        same expressions, and the end heading wrapped where a ``Pose`` wraps
        it, also from a stored heading of 2*pi, which a tiny negative angle
        wraps to."""
        assert Pose(0, 0, -1e-300).theta == 2 * math.pi
        rng = np.random.default_rng(8)
        for case in range(3000):
            start = Pose(float(rng.normal()), float(rng.normal()),
                         [float(rng.uniform(-10, 10)), 0.0, -1e-300][case % 3])
            omega = [0.0, OMEGA_STRAIGHT_EPS / 2, OMEGA_STRAIGHT_EPS * 2, float(rng.normal()),
                     -start.theta / 1.3][case % 5]
            v = float(rng.normal())
            want = integrate_pose(start, v, omega, 1.3)
            assert (integrate_body(start.x, start.y, start.theta, v, omega, 1.3)
                    == (want.x, want.y, want.theta))


class TestNoiseModel:
    def test_demo_partition_tiles_exactly(self, demo_noise):
        wn = demo_noise.right
        edges = [wn.interval(j) for j in range(1, 4)]
        assert wn.n * wn.delta == pytest.approx(edges[2][1] - edges[0][0], abs=0.0)
        # adjacent tiles share their endpoints exactly
        assert edges[0][1] == edges[1][0]
        assert edges[1][1] == edges[2][0]
        assert edges[0][0] == wn.eps_min
        assert edges[2][1] == wn.eps_min + wn.n * wn.delta

    def test_partition_endpoints_near_nominal_values(self, demo_noise):
        wn = demo_noise.right
        endpoints = [wn.eps_min + j * wn.delta for j in range(4)]
        for got, expected in zip(endpoints, (-0.0096, -0.0032, 0.0032, 0.0096)):
            assert got == pytest.approx(expected, abs=1e-4)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            WheelNoise(-0.01, 0.005, 2, (0.4, 0.4))
        with pytest.raises(ValueError):
            WheelNoise(-0.01, 0.005, 2, (1.2, -0.2))
        with pytest.raises(ValueError):
            WheelNoise(-0.01, 0.005, 2, (0.5, 0.3, 0.2))

    @pytest.mark.parametrize("args", [
        (0.0, math.nan, 1, (1.0,)), (0.0, math.inf, 1, (1.0,)),
        (0.0, 0.1, 2, (math.nan, 1.0)), (0.0, 0.1, 2, (math.inf, 1.0)),
        (math.nan, 0.1, 1, (1.0,)), (-math.inf, 0.1, 1, (1.0,))])
    def test_non_finite_fields_rejected(self, args):
        # the loader rejects these by key; library callers reach the dataclass directly
        with pytest.raises(ValueError, match="finite"):
            WheelNoise(*args)

    def test_interval_index_out_of_range(self, demo_noise):
        with pytest.raises(IndexError):
            demo_noise.right.interval(0)
        with pytest.raises(IndexError):
            demo_noise.right.interval(4)

    def test_zero_width_noise_allowed(self, zero_noise):
        assert zero_noise.right.interval(1) == (0.0, 0.0)


class TestSampleNoiseInterval:
    @pytest.mark.parametrize("u,expected", [(0.10, 1), (0.69, 2), (0.95, 3)])
    def test_inverse_cdf_thresholds(self, u, expected):
        nm = symmetric_noise(-0.01, 0.005, 3, (0.2, 0.5, 0.3))
        assert nm.right.tile(u) == expected

    def test_degenerate_distribution(self):
        nm = symmetric_noise(-0.01, 0.02, 1, (1.0,))
        for u in (0.0, 0.5, 0.999999):
            assert nm.left.tile(u) == 1

    def test_empirical_frequencies(self):
        nm = symmetric_noise(-0.01, 0.005, 3, (0.2, 0.5, 0.3))
        rng = np.random.default_rng(11)
        n = 20000
        counts = np.zeros(3)
        for _ in range(n):
            counts[nm.right.tile(rng.random()) - 1] += 1
        for freq, p in zip(counts / n, (0.2, 0.5, 0.3)):
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)


    def test_tile_table_matches_cumsum_per_call(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            probs = rng.random(n) * (rng.random(n) < 0.8) + 1e-3
            probs = tuple(float(p) for p in probs / probs.sum())
            try:
                wn = WheelNoise(-0.01, 0.005, n, probs)
            except ValueError:  # rounding left the sum off 1 by more than 1e-12
                continue
            us = list(rng.random(50)) + list(wn.cdf) + [0.0, np.nextafter(1.0, 0.0)]
            for u in us:
                assert wn.tile(float(u)) == tile_by_cumsum(wn, float(u))


class TestMeasure:
    def test_middle_interval_endpoints(self, demo_params, demo_noise):
        m = measure(demo_noise, demo_params, 1, 2, 2)
        u = STRAIGHT[0]
        assert m.r_lo == pytest.approx(u - ENCODER_DELTA / 2, rel=1e-12)
        assert m.r_hi == pytest.approx(u + ENCODER_DELTA / 2, rel=1e-12)
        assert m.r_hi - m.r_lo == pytest.approx(ENCODER_DELTA, rel=1e-9)
        assert (m.action_index, m.j_r, m.j_l) == (1, 2, 2)

    def test_intervals_tile_command_plus_noise_range(self, demo_params, demo_noise):
        u_r, wn = demo_params.actions[0][0], demo_noise.right
        pieces = [measure(demo_noise, demo_params, 0, j, 1) for j in (1, 2, 3)]
        assert pieces[0].r_lo == pytest.approx(u_r + wn.eps_min, rel=1e-12)
        assert pieces[2].r_hi == pytest.approx(u_r + wn.eps_min + wn.n * wn.delta, rel=1e-12)
        assert pieces[0].r_hi == pieces[1].r_lo
        assert pieces[1].r_hi == pieces[2].r_lo

    def test_index_errors(self, demo_params, demo_noise):
        with pytest.raises(IndexError):
            measure(demo_noise, demo_params, 5, 1, 1)
        with pytest.raises(IndexError):
            measure(demo_noise, demo_params, 0, 4, 1)


class TestSampleNoiseInInterval:
    def test_endpoints_and_midpoint(self, demo_noise):
        lo, hi = demo_noise.right.interval(2)
        assert demo_noise.right.noise_in_tile(2, 0.0) == lo
        mid = demo_noise.right.noise_in_tile(2, 0.5)
        assert mid == pytest.approx((lo + hi) / 2, rel=1e-12)

    def test_empirical_mean_is_midpoint(self, demo_noise):
        rng = np.random.default_rng(3)
        n = 20000
        draws = [demo_noise.left.noise_in_tile(3, rng.random())
                 for _ in range(n)]
        lo, hi = demo_noise.left.interval(3)
        width = hi - lo
        sigma = width / math.sqrt(12)
        assert abs(np.mean(draws) - (lo + hi) / 2) < 3 * sigma / math.sqrt(n)


class TestPose:
    def test_theta_wrapped(self):
        assert Pose(0, 0, 2 * math.pi).theta == 0.0
        assert Pose(0, 0, -0.5).theta == pytest.approx(2 * math.pi - 0.5, rel=1e-12)
        assert 0.0 <= Pose(0, 0, 123.456).theta < 2 * math.pi

    def test_angle_diff_wraps_to_half_circle(self):
        assert angle_diff(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
        assert angle_diff(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)


class TestVehicleParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VehicleParams(0.0, 0.3, 2.6, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            VehicleParams(0.1, 0.3, 2.6, ())
        with pytest.raises(ValueError):
            VehicleParams(0.1, 0.3, 2.6, ((1.0, 1.0), (1.0, 1.0)))

    @pytest.mark.parametrize("geometry", [
        (math.nan, 0.295, 2.6), (math.inf, 0.295, 2.6), (0.1, math.nan, 2.6),
        (0.1, math.inf, 2.6), (0.1, 0.295, math.nan), (0.1, 0.295, math.inf)])
    def test_non_finite_geometry_rejected(self, geometry):
        with pytest.raises(ValueError, match="positive and finite"):
            VehicleParams(*geometry, ((1.0, 1.0),))
