"""Nominal trajectory and worst-case position uncertainty from measurements.

Given a history of commanded actions and encoder interval readings, the
nominal trajectory assumes each wheel's noise sat at the midpoint of its
measured interval.  The disc radius around the nominal position grows each
stage by the largest end-of-stage deviation reachable from the previous
uncertainty: eight corner cases pairing the extreme start orientations with
the endpoints of each wheel's measured interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dynamics import (MeasuredInterval, NoiseModel, Pose, VehicleParams,
                       angle_diff, integrate_segment)
from .tracegen import Stage, Trajectory, UncertaintyTube, make_stage


@dataclass(frozen=True)
class NominalStageState:
    """Stage-end nominal pose with its distance and orientation uncertainty."""

    pose: Pose
    d: float
    dtheta: float

    def __post_init__(self):
        if self.d < 0 or self.dtheta < 0:
            raise ValueError("uncertainty values must be non-negative")


def propagate_stage(prev: NominalStageState, action: tuple[float, float],
                    interval: MeasuredInterval, params: VehicleParams,
                    nm: NoiseModel) -> tuple[NominalStageState, Stage]:
    """Advance one stage: nominal midpoint motion plus worst-case growth.

    Returns the new stage-end state and the nominal Stage traversed.  The
    distance increment is the largest endpoint deviation over the eight
    combinations of start orientation (+/- previous spread) and measured
    wheel-speed interval endpoints; the orientation spread is the largest
    wrapped heading difference over the same set.
    """
    u_r, u_l = action
    mid_r = nm.right.midpoint(interval.j_r)
    mid_l = nm.left.midpoint(interval.j_l)
    stage = make_stage(params, prev.pose, u_r + mid_r, u_l + mid_l, params.dt)
    nominal = stage.end

    worst_d = 0.0
    worst_th = 0.0
    alphas = (prev.dtheta, -prev.dtheta) if prev.dtheta > 0 else (0.0,)
    for alpha in alphas:
        start = Pose(prev.pose.x, prev.pose.y, prev.pose.theta + alpha)
        for w_r in (interval.r_lo, interval.r_hi):
            for w_l in (interval.l_lo, interval.l_hi):
                q = integrate_segment(params, start, w_r, w_l, params.dt)
                dist = ((q.x - nominal.x) ** 2 + (q.y - nominal.y) ** 2) ** 0.5
                worst_d = max(worst_d, dist)
                worst_th = max(worst_th, angle_diff(nominal.theta, q.theta))
    return NominalStageState(nominal, prev.d + worst_d, worst_th), stage


def build_tube(history: Sequence[tuple[int, MeasuredInterval]], q_init: Pose,
               params: VehicleParams, nm: NoiseModel) -> UncertaintyTube:
    """Fold the per-stage propagation over a measurement history.

    Each history entry pairs the commanded action index with the encoder
    output for that stage.  The tube's radius over stage k is the stage-end
    value d^k.
    """
    state = NominalStageState(q_init, 0.0, 0.0)
    stages: list[Stage] = []
    radii: list[float] = []
    dthetas: list[float] = []
    for action_index, interval in history:
        if interval.action_index != action_index:
            raise ValueError("measured interval does not match the commanded action")
        action = params.actions[action_index]
        state, stage = propagate_stage(state, action, interval, params, nm)
        stages.append(stage)
        radii.append(state.d)
        dthetas.append(state.dtheta)
    return UncertaintyTube(Trajectory(tuple(stages)), tuple(radii), tuple(dthetas))
