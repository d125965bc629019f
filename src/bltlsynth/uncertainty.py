"""Nominal trajectory and worst-case position uncertainty from measurements.

Given a history of commanded actions and encoder interval readings, the
nominal trajectory assumes each wheel's noise sat at the midpoint of its
measured interval.  Every trajectory whose wheel speeds lie in the measured
intervals stays, at every time of stage k, within the disc of radius d_k
around the nominal position, with its heading within dtheta_k of the
nominal heading.  Both grow in closed form from the previous stage's:

    d_k      = d_{k-1} + tau*dv + |v|*min(dtheta_{k-1}*tau + domega*tau^2/2, 2*tau)
    dtheta_k = dtheta_{k-1} + domega*tau

where v is the nominal body speed, tau the stage duration, and dv and domega
the largest deviations of body speed and turn rate from the nominal's over
the measured interval.  Both are linear in the wheel speeds, so the four
wheel-speed corners of the interval attain them.  The bound follows from
|v'*e(theta') - v*e(theta)| <= |v' - v| + |v|*min(|theta' - theta|, 2), with
e the unit heading vector and |theta' - theta| <= dtheta_{k-1} + domega*s
at time s into the stage, integrated over the stage.  It grows with s, so
its stage-end value bounds the whole stage.  The spread is left unwrapped:
the min caps what a spread past 2 rad adds.

A stage is the per-episode hot path, so it runs on plain floats: the tube
state after a stage is the tuple (x, y, theta, d, dtheta) of the nominal
pose and its distance and orientation uncertainty, and the stage is a
``tracegen.Stage``, a flat named tuple of floats.  The nominal pose comes
from ``dynamics.integrate_body``.  The terms that a stage's step fixes
(nominal wheel speeds and body speeds, the largest corner deviations) come
precomputed as ``StageTerms``, built once per step.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .dynamics import (MeasuredInterval, NoiseModel, Pose, VehicleParams, integrate_body,
                       wheel_to_body)
from .tracegen import Stage, Trajectory, UncertaintyTube

# A stage-end tube state: nominal pose (x, y, theta) with its distance and
# orientation uncertainty (d, dtheta), both non-negative.
TubeState = tuple[float, float, float, float, float]


class StageTerms(NamedTuple):
    """The terms of a tube stage that its step (commanded action and measured
    interval) fixes: nominal wheel speeds at the tile midpoints, their body
    speed and turn rate, the stage duration, and the largest deviations of
    body speed (dv) and turn rate (domega) from the nominal's over the
    wheel-speed corners of the measured interval."""

    w_r: float
    w_l: float
    v: float
    omega: float
    duration: float
    dv: float
    domega: float


def stage_terms(interval: MeasuredInterval, params: VehicleParams,
                nm: NoiseModel) -> StageTerms:
    """The step-determined terms of a stage under the measured interval."""
    u_r, u_l = params.actions[interval.action_index]
    w_r = u_r + nm.right.midpoint(interval.j_r)
    w_l = u_l + nm.left.midpoint(interval.j_l)
    v, omega = wheel_to_body(params, w_r, w_l)
    corners = [wheel_to_body(params, c_r, c_l)
               for c_r in (interval.r_lo, interval.r_hi)
               for c_l in (interval.l_lo, interval.l_hi)]
    dv = max(abs(c_v - v) for c_v, _ in corners)
    domega = max(abs(c_omega - omega) for _, c_omega in corners)
    return StageTerms(w_r, w_l, v, omega, params.dt, dv, domega)


def propagate_stage(prev: TubeState, terms: StageTerms) -> tuple[TubeState, Stage]:
    """Advance one stage: nominal midpoint motion plus worst-case growth.

    Returns the new stage-end state and the nominal stage traversed.  The
    distance and orientation uncertainty grow by the closed-form bound of
    the module docstring, which holds at every time of the stage.
    """
    x0, y0, theta, d, dtheta = prev
    w_r, w_l, v, omega, tau, dv, domega = terms
    nx, ny, nth = integrate_body(x0, y0, theta, v, omega, tau)
    stage = Stage(x0, y0, theta, w_r, w_l, v, omega, tau, nx, ny, nth)
    turn = (dtheta + 0.5 * domega * tau) * tau
    growth = dv * tau + abs(v) * (turn if turn < 2.0 * tau else 2.0 * tau)
    return (nx, ny, nth, d + growth, dtheta + domega * tau), stage


def build_tube(history: Sequence[tuple[int, MeasuredInterval]], q_init: Pose,
               params: VehicleParams, nm: NoiseModel) -> UncertaintyTube:
    """Fold the per-stage propagation over a measurement history.

    Each history entry pairs the commanded action index with the encoder
    output for that stage.  The tube's radius over stage k is the stage-end
    value d^k, which bounds the deviation over the whole stage.
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
