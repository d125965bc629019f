"""Timed traces from concrete trajectories and from uncertainty tubes.

A trajectory is a chain of constant-input stages.  Its trace records which
labeled region the position is in as time evolves.  A tube adds a per-stage
disc radius around the nominal position; its trace uses conservative rules:
a goal label requires the whole disc inside a single goal rectangle, the
unsafe label triggers on mere disc contact with any unsafe rectangle, and
unsafe contact takes precedence over goal containment when both first appear
within one detection step.

Event times are found by sampling each stage at dt/divisor and refining every
predicate flip by bisection to EVENT_TIME_TOL seconds.  Features thinner than
one detection step can be missed; the divisor is configurable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bltl import TraceStep
from .dynamics import Pose, VehicleParams, angle_diff, integrate_segment, wheel_to_body
from .env import Environment, Rect, Region

EVENT_TIME_TOL = 1e-6
DEFAULT_DETECTION_DIVISOR = 256


# ---------------------------------------------------------------------------
# Trajectories and tubes

@dataclass(frozen=True)
class Stage:
    """One constant-input segment: start pose, applied wheel speeds, duration.

    Body speed and turn rate are precomputed so later geometry needs no
    vehicle parameters.
    """

    start: Pose
    w_r: float
    w_l: float
    duration: float
    v: float
    omega: float
    end: Pose

    def position_at(self, local_t: float) -> tuple[float, float]:
        """Position local_t seconds into the stage (closed form)."""
        if abs(self.omega) < 1e-12:
            return (self.start.x + self.v * local_t * math.cos(self.start.theta),
                    self.start.y + self.v * local_t * math.sin(self.start.theta))
        th = self.start.theta + self.omega * local_t
        x = self.start.x + (self.v / self.omega) * (math.sin(th) - math.sin(self.start.theta))
        y = self.start.y - (self.v / self.omega) * (math.cos(th) - math.cos(self.start.theta))
        return (x, y)

    def positions_at(self, local_ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if abs(self.omega) < 1e-12:
            xs = self.start.x + self.v * local_ts * math.cos(self.start.theta)
            ys = self.start.y + self.v * local_ts * math.sin(self.start.theta)
            return xs, ys
        th = self.start.theta + self.omega * local_ts
        xs = self.start.x + (self.v / self.omega) * (np.sin(th) - math.sin(self.start.theta))
        ys = self.start.y - (self.v / self.omega) * (np.cos(th) - math.cos(self.start.theta))
        return xs, ys


def make_stage(params: VehicleParams, start: Pose, w_r: float, w_l: float,
               duration: float) -> Stage:
    v, omega = wheel_to_body(params, w_r, w_l)
    end = integrate_segment(params, start, w_r, w_l, duration)
    return Stage(start, w_r, w_l, duration, v, omega, end)


@dataclass(frozen=True)
class Trajectory:
    """Chain of stages; each stage starts where the previous one ended.

    May be empty (a vehicle that has not moved yet).
    """

    stages: tuple[Stage, ...]

    def __post_init__(self):
        for prev, cur in zip(self.stages, self.stages[1:]):
            gap = math.hypot(cur.start.x - prev.end.x, cur.start.y - prev.end.y)
            if gap > 1e-9 or angle_diff(cur.start.theta, prev.end.theta) > 1e-9:
                raise ValueError("trajectory stages do not chain continuously")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)

    @property
    def end(self) -> Pose:
        if not self.stages:
            raise ValueError("empty trajectory has no end pose")
        return self.stages[-1].end


@dataclass(frozen=True)
class UncertaintyTube:
    """Nominal trajectory with per-stage disc radius and orientation spread.

    radii[k] applies on the whole of stage k (the stage-end value, which is
    the largest along the stage); the radius at time zero is 0.
    """

    trajectory: Trajectory
    radii: tuple[float, ...]
    dthetas: tuple[float, ...]

    def __post_init__(self):
        k = len(self.trajectory.stages)
        if len(self.radii) != k or len(self.dthetas) != k:
            raise ValueError("need one radius and one orientation spread per stage")
        prev = 0.0
        for d in self.radii:
            if d < prev - 1e-15:
                raise ValueError("tube radii must be non-decreasing")
            prev = d
        if any(d < 0 for d in self.dthetas):
            raise ValueError("orientation spreads must be non-negative")


# ---------------------------------------------------------------------------
# Disc/rectangle predicates

def disc_in_region(center: tuple[float, float], d: float, region: Region) -> bool:
    """Closed disc of radius d entirely inside the closed rectangle."""
    if d < 0:
        raise ValueError("disc radius must be non-negative")
    x, y = center
    r = region.rect
    return (r.x0 <= x - d and x + d <= r.x1 and r.y0 <= y - d and y + d <= r.y1)


def disc_intersects_region(center: tuple[float, float], d: float, region: Region) -> bool:
    """Closed disc of radius d touches the closed rectangle."""
    if d < 0:
        raise ValueError("disc radius must be non-negative")
    x, y = center
    r = region.rect
    dx = max(r.x0 - x, 0.0, x - r.x1)
    dy = max(r.y0 - y, 0.0, y - r.y1)
    return dx * dx + dy * dy <= d * d


def _disc_in_rect_mask(xs: np.ndarray, ys: np.ndarray, d: float, r: Rect) -> np.ndarray:
    return ((r.x0 <= xs - d) & (xs + d <= r.x1) & (r.y0 <= ys - d) & (ys + d <= r.y1))


def _disc_touch_rect_mask(xs: np.ndarray, ys: np.ndarray, d: float, r: Rect) -> np.ndarray:
    dx = np.maximum(r.x0 - xs, 0.0)
    np.maximum(dx, xs - r.x1, out=dx)
    dy = np.maximum(r.y0 - ys, 0.0)
    np.maximum(dy, ys - r.y1, out=dy)
    return dx * dx + dy * dy <= d * d


# ---------------------------------------------------------------------------
# Event scanning machinery

@dataclass
class _StageGrid:
    """Sample times for one stage: t0 + k*step for k = 0..m-1 (half-open)."""

    index: int
    t0: float
    duration: float
    local_ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray


def _build_grids(traj: Trajectory, divisor: int) -> list[_StageGrid]:
    grids = []
    t0 = 0.0
    for idx, st in enumerate(traj.stages):
        local = np.arange(divisor) * (st.duration / divisor)
        xs, ys = st.positions_at(local)
        grids.append(_StageGrid(idx, t0, st.duration, local, xs, ys))
        t0 += st.duration
    return grids


class _EventScanner:
    """Walks stage grids, locating the first time a predicate becomes true.

    Predicates are supplied per stage as boolean masks over the grid plus a
    scalar form for bisection.  The scalar form receives an absolute time.
    """

    def __init__(self, traj: Trajectory, divisor: int):
        if not traj.stages:
            raise ValueError("cannot trace an empty trajectory")
        if divisor < 2:
            raise ValueError("detection divisor must be at least 2")
        self.traj = traj
        self.grids = _build_grids(traj, divisor)
        self.total = sum(st.duration for st in traj.stages)

    def stage_of(self, t: float) -> int:
        """Stage whose half-open window [t0, t0+dur) contains t; the final
        instant belongs to the last stage."""
        for g in self.grids:
            if t < g.t0 + g.duration:
                return g.index
        return len(self.grids) - 1

    def position(self, t: float) -> tuple[float, float]:
        g = self.grids[self.stage_of(t)]
        return self.traj.stages[g.index].position_at(t - g.t0)

    def first_true(self, t_from: float,
                   masks: Callable[[_StageGrid], np.ndarray],
                   scalar: Callable[[float], bool]) -> Optional[float]:
        """Earliest t >= t_from with scalar(t) true, refined to EVENT_TIME_TOL.

        The grid locates a sign change; bisection pins it down.  Returns None
        when the predicate stays false through the end of the trajectory.
        """
        if scalar(t_from):
            return t_from
        prev_t = t_from
        for g in self.grids:
            if g.t0 + g.duration <= t_from:
                continue
            mask = masks(g)
            ts = g.t0 + g.local_ts
            usable = ts > t_from
            hits = np.flatnonzero(mask & usable)
            if hits.size:
                hit_t = ts[hits[0]]
                lo = prev_t if hits[0] == 0 or not usable[hits[0] - 1] else ts[hits[0] - 1]
                return self._bisect(lo, hit_t, scalar)
            usable_idx = np.flatnonzero(usable)
            if usable_idx.size:
                prev_t = ts[usable_idx[-1]]
        # final instant of the trajectory is not on any half-open grid
        if scalar(self.total):
            return self._bisect(prev_t, self.total, scalar)
        return None

    @staticmethod
    def _bisect(lo: float, hi: float, scalar: Callable[[float], bool]) -> float:
        """Shrink (lo, hi] with scalar false at lo, true at hi."""
        while hi - lo > EVENT_TIME_TOL:
            mid = 0.5 * (lo + hi)
            if scalar(mid):
                hi = mid
            else:
                lo = mid
        return hi


def _emit(out: list[TraceStep], label: Optional[str], duration: float) -> None:
    out.append((label, max(float(duration), 0.0)))


# ---------------------------------------------------------------------------
# Def-style trace from a concrete trajectory

def trace_from_trajectory(traj: Trajectory, env: Environment,
                          divisor: int = DEFAULT_DETECTION_DIVISOR) -> list[TraceStep]:
    """Trace of region visits for a point trajectory.

    The label becomes a proposition when the position enters the union of
    rectangles carrying it (closed sets) and reverts to None on exit; the
    final state is padded so durations sum to the trajectory duration.
    """
    scanner = _EventScanner(traj, divisor)
    by_prop: dict[str, list[Region]] = {}
    for reg in env.regions:
        by_prop.setdefault(reg.label, []).append(reg)
    # unsafe first so exact simultaneous entries resolve conservatively
    props = sorted(by_prop, key=lambda p: (p != env.unsafe, p))

    def inside(prop: str, t: float) -> bool:
        x, y = scanner.position(t)
        return any(r.rect.contains_point(x, y) for r in by_prop[prop])

    mask_cache: dict[tuple[str, int], np.ndarray] = {}

    def inside_mask(prop: str, g: _StageGrid) -> np.ndarray:
        key = (prop, g.index)
        if key not in mask_cache:
            mask = np.zeros(g.xs.shape, dtype=bool)
            for r in by_prop[prop]:
                mask |= ((r.rect.x0 <= g.xs) & (g.xs <= r.rect.x1)
                         & (r.rect.y0 <= g.ys) & (g.ys <= r.rect.y1))
            mask_cache[key] = mask
        return mask_cache[key]

    out: list[TraceStep] = []
    t_cur = 0.0
    label: Optional[str] = next((p for p in props if inside(p, 0.0)), None)
    while True:
        if label is None:
            candidates = []
            for p in props:
                t_hit = scanner.first_true(
                    t_cur, lambda g, p=p: inside_mask(p, g), lambda t, p=p: inside(p, t))
                if t_hit is not None:
                    candidates.append((t_hit, p))
            if not candidates:
                break
            t_ev, new_label = min(candidates, key=lambda c: (c[0], props.index(c[1])))
        else:
            cur = label
            t_ev = scanner.first_true(
                t_cur, lambda g: ~inside_mask(cur, g), lambda t: not inside(cur, t))
            if t_ev is None:
                break
            new_label = None
        _emit(out, label, t_ev - t_cur)
        t_cur, label = t_ev, new_label
    _emit(out, label, scanner.total - t_cur)
    return out


# ---------------------------------------------------------------------------
# Conservative trace from an uncertainty tube

def trace_from_tube(tube: UncertaintyTube, env: Environment,
                    divisor: int = DEFAULT_DETECTION_DIVISOR) -> list[TraceStep]:
    """Trace of the disc-valued uncertainty region around the nominal path.

    Goal labels require containment of the disc in a single goal rectangle;
    the unsafe label requires contact with any unsafe rectangle.  When both
    first occur within the same detection step, unsafe wins.  The disc radius
    is the stage-end value for the whole stage (0 at time zero).
    """
    traj = tube.trajectory
    scanner = _EventScanner(traj, divisor)
    goal_regions = [r for r in env.regions if r.label != env.unsafe]
    unsafe_regions = env.unsafe_regions()

    def radius_at(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return tube.radii[scanner.stage_of(t)]

    def contained(reg: Region, t: float) -> bool:
        return disc_in_region(scanner.position(t), radius_at(t), reg)

    def touches_unsafe(t: float) -> bool:
        pos = scanner.position(t)
        d = radius_at(t)
        return any(disc_intersects_region(pos, d, r) for r in unsafe_regions)

    contain_cache: dict[tuple[str, int], np.ndarray] = {}
    unsafe_cache: dict[int, np.ndarray] = {}

    def contained_mask(reg: Region, g: _StageGrid) -> np.ndarray:
        key = (reg.name, g.index)
        if key not in contain_cache:
            contain_cache[key] = _disc_in_rect_mask(g.xs, g.ys, tube.radii[g.index], reg.rect)
        return contain_cache[key]

    def unsafe_mask(g: _StageGrid) -> np.ndarray:
        if g.index not in unsafe_cache:
            d = tube.radii[g.index]
            mask = np.zeros(g.xs.shape, dtype=bool)
            for r in unsafe_regions:
                mask |= _disc_touch_rect_mask(g.xs, g.ys, d, r.rect)
            unsafe_cache[g.index] = mask
        return unsafe_cache[g.index]

    def initial_label() -> tuple[Optional[str], Optional[Region]]:
        if touches_unsafe(0.0):
            return env.unsafe, None
        for reg in goal_regions:
            if contained(reg, 0.0):
                return reg.label, reg
        return None, None

    out: list[TraceStep] = []
    t_cur = 0.0
    label, cur_region = initial_label()
    while True:
        if label is None:
            t_unsafe = (scanner.first_true(t_cur, unsafe_mask, touches_unsafe)
                        if unsafe_regions else None)
            best: Optional[tuple[float, Region]] = None
            for reg in goal_regions:
                t_hit = scanner.first_true(
                    t_cur, lambda g, reg=reg: contained_mask(reg, g),
                    lambda t, reg=reg: contained(reg, t))
                if t_hit is not None and (best is None or t_hit < best[0]):
                    best = (t_hit, reg)
            if t_unsafe is None and best is None:
                break
            # unsafe precedence: ties at the same detection step go unsafe
            if t_unsafe is not None and (best is None or t_unsafe <= best[0]
                                         or _same_step(scanner, t_unsafe, best[0], divisor)):
                t_ev, label_new, region_new = t_unsafe, env.unsafe, None
            else:
                t_ev, label_new, region_new = best[0], best[1].label, best[1]
        elif label == env.unsafe:
            t_ev = scanner.first_true(
                t_cur, lambda g: ~unsafe_mask(g), lambda t: not touches_unsafe(t))
            if t_ev is None:
                break
            label_new, region_new = None, None
        else:
            reg = cur_region
            t_ev = scanner.first_true(
                t_cur, lambda g: ~contained_mask(reg, g),
                lambda t: not contained(reg, t))
            if t_ev is None:
                break
            label_new, region_new = None, None
        _emit(out, label, t_ev - t_cur)
        t_cur, label, cur_region = t_ev, label_new, region_new
    _emit(out, label, scanner.total - t_cur)
    return out


def _same_step(scanner: _EventScanner, t_a: float, t_b: float, divisor: int) -> bool:
    """Whether two instants fall in the same detection step of one stage."""
    ka = scanner.stage_of(t_a)
    kb = scanner.stage_of(t_b)
    if ka != kb:
        return False
    g = scanner.grids[ka]
    step = g.duration / divisor
    return math.floor((t_a - g.t0) / step) == math.floor((t_b - g.t0) / step)


# ---------------------------------------------------------------------------
# CSV export/import

def write_trajectory_csv(fp, traj: Trajectory, radii: Optional[tuple[float, ...]] = None,
                         samples_per_stage: int = 32) -> None:
    """Rows (t, x, y, theta, d); d is 0 without a tube."""
    writer = csv.writer(fp)
    writer.writerow(["t", "x", "y", "theta", "d"])
    t0 = 0.0
    for k, st in enumerate(traj.stages):
        d = radii[k] if radii is not None else 0.0
        for i in range(samples_per_stage):
            lt = st.duration * i / samples_per_stage
            x, y = st.position_at(lt)
            th = st.start.theta + st.omega * lt
            writer.writerow([repr(t0 + lt), repr(x), repr(y), repr(th % (2 * math.pi)), repr(d)])
        t0 += st.duration
    end = traj.end
    writer.writerow([repr(t0), repr(end.x), repr(end.y), repr(end.theta),
                     repr(radii[-1] if radii is not None else 0.0)])


def read_trajectory_csv(fp) -> list[tuple[float, float, float, float, float]]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:5]] != ["t", "x", "y", "theta", "d"]:
        raise ValueError("trajectory CSV must start with header t,x,y,theta,d")
    return [tuple(float(v) for v in row[:5]) for row in reader if row]


def write_trace_csv(fp, trace: list[TraceStep]) -> None:
    """Rows (label, duration); empty label means no region."""
    writer = csv.writer(fp)
    writer.writerow(["label", "duration"])
    for label, dur in trace:
        writer.writerow([label if label is not None else "", repr(dur)])


def read_trace_csv(fp) -> list[TraceStep]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["label", "duration"]:
        raise ValueError("trace CSV must start with header label,duration")
    out: list[TraceStep] = []
    for row in reader:
        if not row:
            continue
        if len(row) < 2:
            raise ValueError(f"malformed trace row: {row!r}")
        label = row[0].strip() or None
        out.append((label, float(row[1])))
    if not out:
        raise ValueError("trace CSV has no states")
    return out

