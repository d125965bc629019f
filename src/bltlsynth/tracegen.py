"""Timed traces from concrete trajectories and from uncertainty tubes.

A trajectory is a chain of constant-input stages.  Its trace records which
labeled region the position is in as time evolves.  A tube adds a per-stage
disc radius around the nominal position; its trace uses conservative rules:
a goal label requires the whole disc inside a single goal rectangle, the
unsafe label triggers on mere disc contact with any unsafe rectangle, and
unsafe contact takes precedence over goal containment when both start within
BREAKPOINT_TOL of each other.  A point trace is the same walk with radius 0
and one predicate per label: the position lies in the union of the label's
rectangles.

Event times are exact.  Each stage is a straight line or a circular arc, so a
predicate can change only where the path crosses a (possibly offset) rectangle
edge, x(t) = c or y(t) = c, or where its distance to a rectangle corner equals
the disc radius; both have closed-form roots.  The predicate is evaluated at
the midpoint of each piece between those breakpoints, which yields the
maximal time intervals on which it holds, and the trace is a walk over these
interval lists.  Breakpoints closer than BREAKPOINT_TOL seconds merge into
one, and a predicate that holds only at isolated instants (a tangential
touch) gives no trace state.

The walk (``TraceWalk``) can take a tube or a point trajectory one stage at a
time.  After each stage it closes every trace step that the stages so far
fix, and reports the step after them when its label is fixed but its end is
not; a chain episode uses this to stop building its tube, and a closed-loop
validation episode to stop simulating, once the verdict is fixed (see
``mdp.decide_tube``).  Fed every stage and then finished, the same walk gives
the whole-trajectory trace of ``trace_from_tube`` and
``trace_from_trajectory``.  A stage's intervals (``stage_intervals``) depend
only on the stage, its radius and its start time, so a chain sampler computes
them once per history prefix and hands them to the walk.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .bltl import TraceStep
from .dynamics import (OMEGA_STRAIGHT_EPS, Pose, VehicleParams, angle_diff,
                       integrate_body, wheel_to_body)
from .env import Environment, Rect, Region

# Event times closer than this (seconds) are one breakpoint.
BREAKPOINT_TOL = 1e-9
# Slack for near-tangent roots (dimensionless, or m^2 for squared distances)
# and for the per-stage bounding boxes (m); both only add breakpoints.
_TANGENT_SLACK = 1e-12
_BOX_PAD = 1e-9

# A labelling rule: (label, rectangles, contact); see ``TraceWalk``.
Rule = tuple[str, Sequence[Rect], bool]
# A time interval (start, end) in seconds, and one stage's intervals per rule.
Interval = tuple[float, float]
StageIntervals = tuple[tuple[Interval, ...], ...]


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
        if abs(self.omega) < OMEGA_STRAIGHT_EPS:
            return (self.start.x + self.v * local_t * math.cos(self.start.theta),
                    self.start.y + self.v * local_t * math.sin(self.start.theta))
        th = self.start.theta + self.omega * local_t
        x = self.start.x + (self.v / self.omega) * (math.sin(th) - math.sin(self.start.theta))
        y = self.start.y - (self.v / self.omega) * (math.cos(th) - math.cos(self.start.theta))
        return (x, y)


def make_stage(params: VehicleParams, start: Pose, w_r: float, w_l: float,
               duration: float) -> Stage:
    v, omega = wheel_to_body(params, w_r, w_l)
    return Stage(start, w_r, w_l, duration, v, omega, integrate_body(start, v, omega, duration))


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

    radii[k] applies on the whole of stage k.  It is the stage-end bound: the
    largest end-of-stage deviation over the corner cases of the measured
    wheel-speed intervals.  Nothing bounds the deviation inside the stage by
    it: inner trajectories of sharp-turn, wide-noise and spin-in-place
    configs leave the disc mid-stage while staying inside it at the stage
    end (ROADMAP item 1).
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

def _inside(r: Rect, x: float, y: float, d: float) -> bool:
    return r.x0 <= x - d and x + d <= r.x1 and r.y0 <= y - d and y + d <= r.y1


def _touches(r: Rect, x: float, y: float, d: float) -> bool:
    dx = max(r.x0 - x, 0.0, x - r.x1)
    dy = max(r.y0 - y, 0.0, y - r.y1)
    return dx * dx + dy * dy <= d * d


def disc_in_region(center: tuple[float, float], d: float, region: Region) -> bool:
    """Closed disc of radius d entirely inside the closed rectangle."""
    if d < 0:
        raise ValueError("disc radius must be non-negative")
    return _inside(region.rect, center[0], center[1], d)


def disc_intersects_region(center: tuple[float, float], d: float, region: Region) -> bool:
    """Closed disc of radius d touches the closed rectangle."""
    if d < 0:
        raise ValueError("disc radius must be non-negative")
    return _touches(region.rect, center[0], center[1], d)


# ---------------------------------------------------------------------------
# Closed-form event times

def _clamp_unit(s: float) -> Optional[float]:
    """s clamped to [-1, 1] when it lies there up to rounding, else None."""
    if abs(s) > 1.0 + _TANGENT_SLACK:
        return None
    return max(-1.0, min(1.0, s))


class _Path:
    """One stage placed at absolute start time t0, in the closed form the
    event solvers need: a line p0 + t*vel, or an arc
    C + R*(sin(theta), -cos(theta)) with theta = theta0 + omega*t."""

    __slots__ = ("stage", "t0", "duration", "straight", "x0", "y0", "vx", "vy",
                 "theta0", "omega", "radius", "cx", "cy", "box")

    def __init__(self, stage: Stage, t0: float):
        self.stage, self.t0, self.duration = stage, t0, stage.duration
        s, e = stage.start, stage.end
        self.straight = abs(stage.omega) < OMEGA_STRAIGHT_EPS
        if self.straight:
            self.x0, self.y0 = s.x, s.y
            self.vx = stage.v * math.cos(s.theta)
            self.vy = stage.v * math.sin(s.theta)
        else:
            self.theta0, self.omega = s.theta, stage.omega
            self.radius = stage.v / stage.omega
            self.cx = s.x - self.radius * math.sin(s.theta)
            self.cy = s.y + self.radius * math.cos(s.theta)
        # Bounding disc: a sweep of at most pi stays in the disc that has the
        # chord as diameter; a longer one only in the full circle.
        if self.straight or abs(stage.omega) * stage.duration <= math.pi:
            mx, my = (s.x + e.x) / 2.0, (s.y + e.y) / 2.0
            rho = math.hypot(e.x - s.x, e.y - s.y) / 2.0
        else:
            mx, my, rho = self.cx, self.cy, abs(self.radius)
        rho += _BOX_PAD
        self.box = (mx - rho, my - rho, mx + rho, my + rho)

    def near(self, r: Rect, d: float) -> bool:
        """Whether the path can come within d of the rectangle."""
        bx0, by0, bx1, by1 = self.box
        return r.x0 - d <= bx1 and bx0 <= r.x1 + d and r.y0 - d <= by1 and by0 <= r.y1 + d

    def angle_times(self, angles: Sequence[float]) -> list[float]:
        """Local times in (0, duration) at which the heading is congruent to
        one of the angles modulo 2*pi."""
        rate = abs(self.omega)
        period = 2.0 * math.pi / rate
        out = []
        for a in angles:
            lag = a - self.theta0 if self.omega > 0 else self.theta0 - a
            t = (lag % (2.0 * math.pi)) / rate
            while t < self.duration:
                if t > 0.0:
                    out.append(t)
                t += period
        return out

    def line_times(self, axis: int, c: float) -> list[float]:
        """Local times at which coordinate ``axis`` (0 for x, 1 for y) equals c."""
        if self.straight:
            p, rate = (self.x0, self.vx) if axis == 0 else (self.y0, self.vy)
            if rate == 0.0:
                return []
            t = (c - p) / rate
            return [t] if 0.0 < t < self.duration else []
        if self.radius == 0.0:
            return []
        # x = cx + R sin(theta) and y = cy + R sin(theta - pi/2)
        centre, phase = (self.cx, 0.0) if axis == 0 else (self.cy, 0.5 * math.pi)
        s = _clamp_unit((c - centre) / self.radius)
        if s is None:
            return []
        a = math.asin(s)
        return self.angle_times((phase + a, phase + math.pi - a))

    def corner_times(self, px: float, py: float, d: float) -> list[float]:
        """Local times at which the distance to the point (px, py) equals d."""
        if self.straight:
            speed2 = self.vx * self.vx + self.vy * self.vy
            if speed2 == 0.0:
                return []
            ox, oy = self.x0 - px, self.y0 - py
            t_near = -(ox * self.vx + oy * self.vy) / speed2
            ex, ey = ox + self.vx * t_near, oy + self.vy * t_near
            gap = ex * ex + ey * ey - d * d  # closest approach^2 - d^2
            if gap > _TANGENT_SLACK:
                return []
            half = math.sqrt(max(-gap, 0.0) / speed2)
            return [t for t in (t_near - half, t_near + half) if 0.0 < t < self.duration]
        # |C - p + R u|^2 = |C - p|^2 + R^2 + 2 R A sin(theta - psi) with
        # A = |C - p| and psi = atan2(ay, ax), a single sinusoid in theta
        ax, ay = self.cx - px, self.cy - py
        amp = 2.0 * self.radius * math.hypot(ax, ay)
        if amp == 0.0:
            return []
        s = _clamp_unit((d * d - ax * ax - ay * ay - self.radius * self.radius) / amp)
        if s is None:
            return []
        psi = math.atan2(ay, ax)
        a = math.asin(s)
        return self.angle_times((psi + a, psi + math.pi - a))


def _rule_intervals(path: _Path, d: float, near: Sequence[Rect],
                    contact: bool) -> tuple[Interval, ...]:
    """The path's maximal time intervals on which the predicate holds.

    With ``contact`` the predicate is that the disc of radius d touches any of
    ``near``; otherwise that it lies inside the single rectangle ``near[0]``.
    ``near`` holds the rule's rectangles that the disc can reach (see
    ``stage_intervals``).  An interval that starts within BREAKPOINT_TOL of
    the end of the one before extends it.
    """
    holds = _touches if contact else _inside
    off = d if contact else -d
    times = [path.duration]
    for r in near:
        times += path.line_times(0, r.x0 - off)
        times += path.line_times(0, r.x1 + off)
        times += path.line_times(1, r.y0 - off)
        times += path.line_times(1, r.y1 + off)
        if contact and d > 0.0:
            for px in (r.x0, r.x1):
                for py in (r.y0, r.y1):
                    times += path.corner_times(px, py, d)
    cuts = [0.0]
    for t in sorted(times):
        if t - cuts[-1] > BREAKPOINT_TOL:
            cuts.append(t)
    cuts[-1] = path.duration  # the last cut lies within BREAKPOINT_TOL of it
    out: list[Interval] = []
    for a, b in zip(cuts, cuts[1:]):
        x, y = path.stage.position_at(0.5 * (a + b))
        if any(holds(r, x, y, d) for r in near):
            lo, hi = path.t0 + a, path.t0 + b
            if out and out[-1][1] >= lo - BREAKPOINT_TOL:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return tuple(out)


def stage_intervals(rules: Sequence[Rule], stage: Stage, d: float,
                    t0: float) -> StageIntervals:
    """Each rule's maximal time intervals on one stage, with disc radius d,
    for the stage placed at absolute time t0.

    A pure function of its arguments: a walk fed the stage after stages of
    total duration t0 appends exactly these (``TraceWalk.append``).
    """
    path = _Path(stage, t0)
    out = []
    for _, rects, contact in rules:
        near = [r for r in rects if path.near(r, d)
                and (contact or (r.x1 - r.x0 >= 2 * d and r.y1 - r.y0 >= 2 * d))]
        out.append(_rule_intervals(path, d, near, contact) if near else ())
    return tuple(out)


def stage_feed(rules: Sequence[Rule], stages: Iterable[tuple[Stage, float]]
               ) -> Iterator[tuple[StageIntervals, float]]:
    """Each (stage, radius) pair's ``stage_intervals`` with the stage's
    duration, the stage placed where the ones before it end: what
    ``TraceWalk.append`` takes, computed as the pairs are asked for."""
    t0 = 0.0
    for stage, d in stages:
        yield stage_intervals(rules, stage, d, t0), stage.duration
        t0 += stage.duration


# ---------------------------------------------------------------------------
# The trace walk

class TraceWalk:
    """The walk of the labelling rules' interval lists into a timed trace,
    fed one stage at a time.

    Each rule is (label, rectangles, contact), in precedence order: a rule
    whose interval starts within BREAKPOINT_TOL of a later rule's wins.  From
    no label the walk enters the earliest starting interval and stays in it
    until it ends or, when the first rule carries the ``unsafe`` label, until
    an interval of that rule starts.  Labeled states are always separated by
    an unlabeled one, possibly of zero duration, and durations sum to the
    trajectory duration.

    ``append`` appends a stage's intervals (``stage_intervals``, a pure
    function of the stage, its radius and its start time), and ``extend``
    computes and appends them; ``advance`` closes every step
    that the stages so far fix.  A step is entered only once every rule's
    intervals are known past its start + BREAKPOINT_TOL: a later stage can
    extend an interval that ends within BREAKPOINT_TOL of the last stage end,
    or start one there.  ``steps`` holds the closed steps; ``open`` the step
    after them when its label is fixed but its end is not, with its duration
    so far, a lower bound of the final one.  ``finish`` closes the rest; fed
    every stage first, it gives the whole-trajectory walk.
    """

    def __init__(self, rules: Sequence[Rule], unsafe: str):
        self.rules = rules
        self.lists: list[list[Interval]] = [[] for _ in rules]
        self.cutter = 0 if rules and rules[0][0] == unsafe else None
        self.nxt = [0] * len(rules)
        self.total = 0.0
        self.t = 0.0
        self.entered: Optional[tuple[float, int]] = None  # (start, rule) of the open step
        self.steps: list[TraceStep] = []
        self.open: Optional[TraceStep] = None

    def extend(self, stage: Stage, d: float) -> None:
        """Append one stage, with disc radius d, to every rule's intervals."""
        self.append(stage_intervals(self.rules, stage, d, self.total), stage.duration)

    def append(self, intervals: StageIntervals, duration: float) -> None:
        """Append one stage of the given duration by its rules' intervals
        (``stage_intervals`` at this walk's total duration).

        An interval that starts within BREAKPOINT_TOL of the end of a rule's
        last one extends it; the given intervals are not changed.
        """
        for ivs, new in zip(self.lists, intervals):
            for lo, hi in new:
                if ivs and ivs[-1][1] >= lo - BREAKPOINT_TOL:
                    ivs[-1] = (ivs[-1][0], hi)
                else:
                    ivs.append((lo, hi))
        self.total += duration

    def advance(self) -> None:
        """Close every step that the stages so far fix."""
        self._walk(False)

    def finish(self) -> list[TraceStep]:
        """Close every remaining step; the whole trace."""
        self._walk(True)
        return self.steps

    def _walk(self, final: bool) -> None:
        lists, nxt, cutter, out = self.lists, self.nxt, self.cutter, self.steps
        # Intervals ending before this time are final, and no later interval
        # starts before the stage end.
        known = self.total - BREAKPOINT_TOL
        self.open = None
        while True:
            if self.entered is None:
                t = self.t
                if not final and t + BREAKPOINT_TOL >= known:
                    return
                best: Optional[tuple[float, int]] = None
                late = False
                for i, ivs in enumerate(lists):
                    j = nxt[i]
                    while j < len(ivs) and ivs[j][1] <= t + BREAKPOINT_TOL:
                        j += 1
                    nxt[i] = j
                    if j < len(ivs):
                        start = max(ivs[j][0], t)
                        late = late or start >= known
                        if best is None or start < best[0] - BREAKPOINT_TOL:
                            best = (start, i)
                if best is None:
                    if final:
                        break
                    self.open = (None, self.total - t)
                    return
                if late and not final:
                    return
                start, i = best
                if out or start > 0.0:
                    out.append((None, start - t))
                self.entered = best
            start, i = self.entered
            end = lists[i][nxt[i]][1]
            fixed = final or nxt[i] + 1 < len(lists[i]) or end < known
            if cutter is not None and i != cutter and nxt[cutter] < len(lists[cutter]):
                # it starts after start + BREAKPOINT_TOL, or it would have won
                cut = lists[cutter][nxt[cutter]][0]
                if cut <= end:
                    end, fixed = cut, True
            if not fixed:
                self.open = (self.rules[i][0], end - start)
                return
            out.append((self.rules[i][0], end - start))
            self.t = end
            self.entered = None
        if self.t < self.total or not out:
            out.append((None, self.total - self.t))


def _trace(walk: TraceWalk, traj: Trajectory, radii: Sequence[float]) -> list[TraceStep]:
    """The walk fed every stage of the trajectory, then finished."""
    if not traj.stages:
        raise ValueError("cannot trace an empty trajectory")
    for stage, d in zip(traj.stages, radii):
        walk.extend(stage, d)
    return walk.finish()


def point_rules(env: Environment) -> list[Rule]:
    """The walk's rules for the trace of a point trajectory (radius 0).

    A label holds while the position lies in the union of the rectangles
    carrying it (closed sets); unsafe goes first when entries coincide.
    """
    by_prop: dict[str, list[Rect]] = {}
    for reg in env.regions:
        by_prop.setdefault(reg.label, []).append(reg.rect)
    props = sorted(by_prop, key=lambda p: (p != env.unsafe, p))
    return [(p, by_prop[p], True) for p in props]


def trace_from_trajectory(traj: Trajectory, env: Environment) -> list[TraceStep]:
    """Trace of region visits for a point trajectory (see ``point_rules``)."""
    return _trace(TraceWalk(point_rules(env), env.unsafe), traj, [0.0] * len(traj.stages))


def tube_rules(env: Environment) -> list[Rule]:
    """The walk's rules for the conservative trace of a tube.

    Goal labels require containment of the disc in a single goal rectangle;
    the unsafe label requires contact with any unsafe rectangle and wins ties.
    """
    unsafe = [r.rect for r in env.unsafe_regions()]
    rules = [(env.unsafe, unsafe, True)] if unsafe else []
    return rules + [(r.label, (r.rect,), False) for r in env.regions
                    if r.label != env.unsafe]


def trace_from_tube(tube: UncertaintyTube, env: Environment) -> list[TraceStep]:
    """Conservative trace of the disc-valued region around the nominal path
    (see ``tube_rules``).  The disc radius over stage k is tube.radii[k]."""
    return _trace(TraceWalk(tube_rules(env), env.unsafe), tube.trajectory, tube.radii)


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

