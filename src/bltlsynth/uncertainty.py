"""Nominal trajectory and worst-case position uncertainty from measurements.

Given a history of commanded actions and encoder interval readings, the
nominal trajectory assumes each wheel's noise sat at the midpoint of its
measured interval.  The disc radius around the nominal position grows each
stage by the largest end-of-stage deviation reachable from the previous
uncertainty: eight corner cases pairing the extreme start orientations with
the endpoints of each wheel's measured interval.

A stage is the per-episode hot path, so it runs on plain floats: the tube
state after a stage is the tuple (x, y, theta, d, dtheta) of the nominal
pose and its distance and orientation uncertainty, and the stage is a
``tracegen.Stage``, a flat named tuple of floats.  The nominal pose comes
from ``dynamics.integrate_body`` and the corner cases are integrated in its
closed form, with the same expressions in the same order as integrating
each corner as a ``Pose``, and headings wrapped where a ``Pose`` would wrap
them, so the radii and spreads are the same bits.  The
terms that a stage's step fixes (nominal wheel speeds, body speeds of the
nominal and of the corners) come precomputed as ``StageTerms``, built once
per step.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .dynamics import (OMEGA_STRAIGHT_EPS, TWO_PI, MeasuredInterval, NoiseModel, Pose,
                       VehicleParams, integrate_body, wheel_to_body)
from .tracegen import Stage, Trajectory, UncertaintyTube

# A stage-end tube state: nominal pose (x, y, theta) with its distance and
# orientation uncertainty (d, dtheta), both non-negative.
TubeState = tuple[float, float, float, float, float]


class StageTerms(NamedTuple):
    """The terms of a tube stage that its step (commanded action and measured
    interval) fixes: nominal wheel speeds at the tile midpoints, their body
    speed and turn rate, the stage duration, and per wheel-speed corner of the
    measured interval (straight, scale, turn): whether it runs straight, its
    distance (straight) or turn radius (arc), and its heading change."""

    w_r: float
    w_l: float
    v: float
    omega: float
    duration: float
    corners: tuple[tuple[bool, float, float], ...]


def stage_terms(interval: MeasuredInterval, params: VehicleParams,
                nm: NoiseModel) -> StageTerms:
    """The step-determined terms of a stage under the measured interval."""
    u_r, u_l = params.actions[interval.action_index]
    w_r = u_r + nm.right.midpoint(interval.j_r)
    w_l = u_l + nm.left.midpoint(interval.j_l)
    v, omega = wheel_to_body(params, w_r, w_l)
    tau = params.dt
    corners = []
    for c_r in (interval.r_lo, interval.r_hi):
        for c_l in (interval.l_lo, interval.l_hi):
            c_v, c_omega = wheel_to_body(params, c_r, c_l)
            straight = abs(c_omega) < OMEGA_STRAIGHT_EPS
            corners.append((straight, c_v * tau if straight else c_v / c_omega, c_omega * tau))
    return StageTerms(w_r, w_l, v, omega, tau, tuple(corners))


def propagate_stage(prev: TubeState, terms: StageTerms) -> tuple[TubeState, Stage]:
    """Advance one stage: nominal midpoint motion plus worst-case growth.

    Returns the new stage-end state and the nominal stage traversed.  The
    distance increment is the largest endpoint deviation over the eight
    combinations of start orientation (+/- previous spread) and measured
    wheel-speed interval endpoints; the orientation spread is the largest
    wrapped heading difference over the same set.

    The corners are integrated in the closed form of ``integrate_body``,
    term for term: the step's ``terms`` hold the body speeds of the four
    wheel-speed corners, and sin/cos are taken once per start orientation.
    """
    sin, cos, two_pi = math.sin, math.cos, TWO_PI
    x0, y0, theta, d, dtheta = prev
    w_r, w_l, v, omega, tau, corners = terms
    nx, ny, nth = integrate_body(x0, y0, theta, v, omega, tau)
    stage = Stage(x0, y0, theta, w_r, w_l, v, omega, tau, nx, ny, nth)

    worst_d = 0.0
    worst_th = 0.0
    alphas = (dtheta, -dtheta) if dtheta > 0 else (0.0,)
    for alpha in alphas:
        th0 = (theta + alpha) % two_pi  # wrap_angle, as Pose stores it
        sin0, cos0 = sin(th0), cos(th0)
        for straight, scale, turn in corners:
            if straight:
                qx, qy, qth = x0 + scale * cos0, y0 + scale * sin0, th0 % two_pi
            else:
                th1 = th0 + turn
                qx = x0 + scale * (sin(th1) - sin0)
                qy = y0 - scale * (cos(th1) - cos0)
                qth = th1 % two_pi
            dist = ((qx - nx) ** 2 + (qy - ny) ** 2) ** 0.5
            if dist > worst_d:
                worst_d = dist
            # angle_diff(nth, qth)
            spread = abs(nth - qth) % two_pi
            if two_pi - spread < spread:
                spread = two_pi - spread
            if spread > worst_th:
                worst_th = spread
    return (nx, ny, nth, d + worst_d, worst_th), stage


def build_tube(history: Sequence[tuple[int, MeasuredInterval]], q_init: Pose,
               params: VehicleParams, nm: NoiseModel) -> UncertaintyTube:
    """Fold the per-stage propagation over a measurement history.

    Each history entry pairs the commanded action index with the encoder
    output for that stage.  The tube's radius over stage k is the stage-end
    value d^k.
    """
    state = (q_init.x, q_init.y, q_init.theta, 0.0, 0.0)
    stages: list[Stage] = []
    radii: list[float] = []
    dthetas: list[float] = []
    for action_index, interval in history:
        if interval.action_index != action_index:
            raise ValueError("measured interval does not match the commanded action")
        state, stage = propagate_stage(state, stage_terms(interval, params, nm))
        stages.append(stage)
        radii.append(state[3])
        dthetas.append(state[4])
    return UncertaintyTube(Trajectory(tuple(stages)), tuple(radii), tuple(dthetas))
