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
touch) gives no trace state.  ``stage_intervals`` is one flat kernel per
stage: of the rectangles the disc can reach it solves only the edges that
cross the stage's box widened by the solver's tangent tolerance, since no
other edge has a root inside the stage, so its intervals are the same bits
as solving every edge.  A ``Stage`` is one flat named tuple of floats
(start pose, wheel and body speeds, duration, end pose), which
``stage_intervals`` unpacks positionally.

The walk (``TraceWalk``) takes a tube or a point trajectory one stage at a
time, each with its disc radius (``TraceWalk.append``), places it at the
total duration of the stages before it, and pushes every trace step that the
stages so far fix, then the open one after them, into its monitor, the one
holder of the steps.  A chain episode (``mdp.PathSampler.decide``) and a
closed-loop validation episode (``synthesis._TrueSystemTask.run``) read the
verdict of a mission ``SequentialMonitor`` after each stage, so the one stops
building its tube, and the other stops simulating, once it is fixed; a
``StepList`` keeps the whole-trajectory trace of ``trace_from_tube`` and
``trace_from_trajectory``.  A stage's intervals (``stage_intervals``) depend
only on the stage, its radius and its start time, so the state of the walk
and its monitor after a history prefix's stages is a function of the prefix,
which a chain sampler tables (``TraceWalk.snapshot``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .bltl import TraceStep
from .dynamics import OMEGA_STRAIGHT_EPS, TWO_PI, angle_diff, integrate_body
from .env import Environment, Rect

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

class Stage(NamedTuple):
    """One constant-input segment as a flat record: start pose, applied wheel
    speeds, body speed and turn rate, duration, end pose.

    Headings are wrapped to [0, 2*pi) as ``Pose`` stores them.  Body speed
    and turn rate are precomputed so later geometry needs no vehicle
    parameters.  One is built per stage of every episode, from floats
    (``uncertainty.propagate_stage``, the closed loop of ``synthesis``), and
    its fields are only read.
    """

    x0: float
    y0: float
    theta0: float
    w_r: float
    w_l: float
    v: float
    omega: float
    duration: float
    x1: float
    y1: float
    theta1: float

    def position_at(self, local_t: float) -> tuple[float, float]:
        """Position local_t seconds into the stage (``integrate_body``)."""
        x, y, _ = integrate_body(self.x0, self.y0, self.theta0, self.v, self.omega, local_t)
        return x, y


@dataclass(frozen=True)
class Trajectory:
    """Chain of stages; each stage starts where the previous one ended.

    May be empty (a vehicle that has not moved yet).
    """

    stages: tuple[Stage, ...]

    def __post_init__(self):
        for prev, cur in zip(self.stages, self.stages[1:]):
            gap = math.hypot(cur.x0 - prev.x1, cur.y0 - prev.y1)
            if gap > 1e-9 or angle_diff(cur.theta0, prev.theta1) > 1e-9:
                raise ValueError("trajectory stages do not chain continuously")


@dataclass(frozen=True)
class UncertaintyTube:
    """Nominal trajectory with per-stage disc radius and orientation spread.

    radii[k] applies on the whole of stage k: every trajectory whose wheel
    speeds lie in the measured intervals stays within it of the nominal
    position at every time of the stage, with its heading within dthetas[k]
    of the nominal heading.  The closed-form bound of ``uncertainty`` grows
    with time, so its stage-end value covers the whole stage.  Spreads are
    not wrapped and may exceed pi.
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


# ---------------------------------------------------------------------------
# Closed-form event times

_HALF_PI = 0.5 * math.pi
# A sine value up to this magnitude is a root, clamped to [-1, 1].
_UNIT = 1.0 + _TANGENT_SLACK


def stage_intervals(rules: Sequence[Rule], stage: Stage, d: float,
                    t0: float) -> StageIntervals:
    """Each rule's maximal time intervals on one stage, with disc radius d,
    for the stage placed at absolute time t0.

    A pure function of its arguments: a walk fed the stage after stages of
    total duration t0 appends exactly these (``TraceWalk.append``).

    The stage is a line p0 + t*vel or an arc C + R*(sin(theta), -cos(theta))
    with theta = theta0 + omega*t, inside a box padded by _BOX_PAD.  A rule
    looks only at its rectangles that the disc can reach from the box (and,
    for containment, that are at least 2d wide).  Of their offset edges only
    those that cross the box widened by 2|R|*_TANGENT_SLACK are solved: the
    arc solver takes a sine up to 1 + _TANGENT_SLACK as a tangent root, so
    an edge more than |R|*_TANGENT_SLACK beyond the stage has no root in it,
    and the second |R|*_TANGENT_SLACK and _BOX_PAD exceed the rounding of
    the box by orders of magnitude.  Corner circles are all solved.  Every
    root, cut and midpoint is the expression the solver that solves every
    edge evaluates, so the intervals are the same bits.  An interval that
    starts within BREAKPOINT_TOL of the end of the one before extends it.
    """
    x0, y0, theta0, _, _, v, omega, duration, x1, y1, _ = stage
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    straight = abs(omega) < OMEGA_STRAIGHT_EPS
    if straight:
        vx, vy = v * cos0, v * sin0
        speed2 = vx * vx + vy * vy
        radius = 0.0
    else:
        radius = v / omega
        cx, cy = x0 - radius * sin0, y0 + radius * cos0
        rate = abs(omega)
        period = TWO_PI / rate
    # A sweep of at most pi stays in the disc that has the chord as diameter;
    # a longer one only in the full circle.
    if straight or rate * duration <= math.pi:
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        rho = math.hypot(x1 - x0, y1 - y0) / 2.0
    else:
        mx, my, rho = cx, cy, abs(radius)
    rho += _BOX_PAD
    bx0, by0, bx1, by1 = mx - rho, my - rho, mx + rho, my + rho
    slack = 2.0 * abs(radius) * _TANGENT_SLACK
    ex0, ey0, ex1, ey1 = bx0 - slack, by0 - slack, bx1 + slack, by1 + slack

    out = []
    for _, rects, contact in rules:
        near = []
        for r in rects:
            if (r.x0 - d <= bx1 and bx0 <= r.x1 + d and r.y0 - d <= by1 and by0 <= r.y1 + d
                    and (contact or (r.x1 - r.x0 >= 2 * d and r.y1 - r.y0 >= 2 * d))):
                near.append(r)
        if not near:
            out.append(())
            continue
        off = d if contact else -d
        xs, ys = [], []  # the offset edges that cross the widened box
        for r in near:
            for c in (r.x0 - off, r.x1 + off):
                if ex0 <= c <= ex1:
                    xs.append(c)
            for c in (r.y0 - off, r.y1 + off):
                if ey0 <= c <= ey1:
                    ys.append(c)
        times = [duration]
        angles = []  # arc headings, modulo 2*pi, at which a predicate may change
        if straight:
            for p, vel, cs in ((x0, vx, xs), (y0, vy, ys)):
                if vel != 0.0:
                    for c in cs:
                        t = (c - p) / vel
                        if 0.0 < t < duration:
                            times.append(t)
        elif radius != 0.0:
            # x = cx + R sin(theta) and y = cy + R sin(theta - pi/2)
            for centre, phase, cs in ((cx, 0.0, xs), (cy, _HALF_PI, ys)):
                for c in cs:
                    s = (c - centre) / radius
                    if abs(s) <= _UNIT:
                        a = math.asin(max(-1.0, min(1.0, s)))
                        angles += (phase + a, phase + math.pi - a)
        if contact and d > 0.0:
            for r in near:
                for px, py in ((r.x0, r.y0), (r.x0, r.y1), (r.x1, r.y0), (r.x1, r.y1)):
                    if straight:
                        if speed2 == 0.0:
                            continue
                        ox, oy = x0 - px, y0 - py
                        t_near = -(ox * vx + oy * vy) / speed2
                        qx, qy = ox + vx * t_near, oy + vy * t_near
                        gap = qx * qx + qy * qy - d * d  # closest approach^2 - d^2
                        if gap > _TANGENT_SLACK:
                            continue
                        half = math.sqrt(max(-gap, 0.0) / speed2)
                        for t in (t_near - half, t_near + half):
                            if 0.0 < t < duration:
                                times.append(t)
                        continue
                    # |C - p + R u|^2 = |C - p|^2 + R^2 + 2 R A sin(theta - psi)
                    # with A = |C - p| and psi = atan2(ay, ax)
                    ax, ay = cx - px, cy - py
                    amp = 2.0 * radius * math.hypot(ax, ay)
                    if amp == 0.0:
                        continue
                    s = (d * d - ax * ax - ay * ay - radius * radius) / amp
                    if abs(s) <= _UNIT:
                        psi = math.atan2(ay, ax)
                        a = math.asin(max(-1.0, min(1.0, s)))
                        angles += (psi + a, psi + math.pi - a)
        for a in angles:
            lag = a - theta0 if omega > 0 else theta0 - a
            t = (lag % TWO_PI) / rate
            while t < duration:
                if t > 0.0:
                    times.append(t)
                t += period
        times.sort()
        cuts = [0.0]
        for t in times:
            if t - cuts[-1] > BREAKPOINT_TOL:
                cuts.append(t)
        cuts[-1] = duration  # the last cut lies within BREAKPOINT_TOL of it
        holds = _touches if contact else _inside
        ivs: list[Interval] = []
        for a, b in zip(cuts, cuts[1:]):
            lt = 0.5 * (a + b)  # the midpoint, placed as Stage.position_at places it
            if straight:
                x, y = x0 + v * lt * cos0, y0 + v * lt * sin0
            else:
                th = theta0 + omega * lt
                x = x0 + radius * (math.sin(th) - sin0)
                y = y0 - radius * (math.cos(th) - cos0)
            for r in near:
                if holds(r, x, y, d):
                    break
            else:
                continue
            lo, hi = t0 + a, t0 + b
            if ivs and ivs[-1][1] >= lo - BREAKPOINT_TOL:
                ivs[-1] = (ivs[-1][0], hi)
            else:
                ivs.append((lo, hi))
        out.append(tuple(ivs))
    return tuple(out)


# ---------------------------------------------------------------------------
# The trace walk

class TraceWalk:
    """The walk of the labelling rules' interval lists into a timed trace,
    fed one stage at a time, pushing each step into its monitor.

    Each rule is (label, rectangles, contact), in precedence order: a rule
    whose interval starts within BREAKPOINT_TOL of a later rule's wins.  From
    no label the walk enters the earliest starting interval and stays in it
    until it ends or, when the first rule carries the ``unsafe`` label, until
    an interval of that rule starts.  Labeled states are always separated by
    an unlabeled one, possibly of zero duration, and durations sum to the
    trajectory duration.

    ``append`` takes a stage and its disc radius, places the stage at the
    walk's total duration (``total``, the one source of a stage's start
    time), appends its rules' intervals (``stage_intervals``) and pushes
    every step that the stages so far fix into ``monitor``, then the step
    after them with ``closed=False`` when its label is fixed but its end is
    not, at its duration so far, a lower bound of the final one.  A step is
    entered only once every rule's intervals are known past its start +
    BREAKPOINT_TOL: a later stage can extend an interval that ends within
    BREAKPOINT_TOL of the last stage end, or start one there.  ``finish``
    pushes the rest; fed every stage first, it gives the whole-trajectory
    walk.  The monitor, a ``SequentialMonitor`` or a ``StepList``, is the one
    holder of the steps.  ``snapshot`` gives the state of the walk and of its
    ``SequentialMonitor`` as an immutable value, and ``restore`` puts it into
    a walk of the same rules and mission, which then goes on as the
    snapshotted walk would.
    """

    def __init__(self, rules: Sequence[Rule], unsafe: str, monitor):
        self.rules = rules
        self.monitor = monitor
        self.lists: list[list[Interval]] = [[] for _ in rules]
        self.cutter = 0 if rules and rules[0][0] == unsafe else None
        self.nxt = [0] * len(rules)
        self.total = 0.0
        self.t = 0.0
        self.entered: Optional[tuple[float, int]] = None  # (start, rule) of the open step

    def append(self, stage: Stage, d: float) -> None:
        """Append one stage at disc radius d, placed at the walk's total
        duration, and push every step that the stages so far fix.

        The stage's intervals are ``stage_intervals`` at that start time; one
        that starts within BREAKPOINT_TOL of the end of a rule's last
        interval extends it.
        """
        for ivs, new in zip(self.lists, stage_intervals(self.rules, stage, d, self.total)):
            for lo, hi in new:
                if ivs and ivs[-1][1] >= lo - BREAKPOINT_TOL:
                    ivs[-1] = (ivs[-1][0], hi)
                else:
                    ivs.append((lo, hi))
        self.total += stage.duration
        self._walk(False)

    def finish(self) -> None:
        """Close every remaining step and push it into the monitor."""
        self._walk(True)

    def snapshot(self) -> tuple:
        """The walk's state and its monitor's, as tuples that later appends
        do not change."""
        return (tuple(map(tuple, self.lists)), tuple(self.nxt), self.total, self.t,
                self.entered, self.monitor.snapshot())

    def restore(self, state: tuple) -> None:
        """Take the state of a ``snapshot`` of a walk with the same rules and
        mission, its monitor's included."""
        lists, nxt, self.total, self.t, self.entered, monitor = state
        self.lists = [list(ivs) for ivs in lists]
        self.nxt = list(nxt)
        self.monitor.restore(monitor)

    def _walk(self, final: bool) -> None:
        lists, nxt, cutter, push = self.lists, self.nxt, self.cutter, self.monitor.push
        # Intervals ending before this time are final, and no later interval
        # starts before the stage end.
        known = self.total - BREAKPOINT_TOL
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
                    push(None, self.total - t, closed=False)
                    return
                if late and not final:
                    return
                start, i = best
                if start > 0.0:  # t > 0 once a step is closed, and start >= t
                    push(None, start - t)
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
                push(self.rules[i][0], end - start, closed=False)
                return
            push(self.rules[i][0], end - start)
            self.t = end  # > start, so > 0
            self.entered = None
        if self.t < self.total or self.t == 0.0:  # an empty walk gives one step
            push(None, self.total - self.t)


class StepList(list):
    """The steps of a whole trace, as a walk's monitor: ``push`` keeps each
    closed step and ignores open ones."""

    def push(self, label: Optional[str], duration: float, closed: bool = True) -> None:
        if closed:
            self.append((label, duration))


def _trace(rules: Sequence[Rule], unsafe: str, traj: Trajectory,
           radii: Sequence[float]) -> list[TraceStep]:
    """The steps of a walk fed every stage of the trajectory, then finished."""
    if not traj.stages:
        raise ValueError("cannot trace an empty trajectory")
    walk = TraceWalk(rules, unsafe, StepList())
    for stage, d in zip(traj.stages, radii):
        walk.append(stage, d)
    walk.finish()
    return walk.monitor


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
    return _trace(point_rules(env), env.unsafe, traj, [0.0] * len(traj.stages))


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
    return _trace(tube_rules(env), env.unsafe, tube.trajectory, tube.radii)


# ---------------------------------------------------------------------------
# CSV export/import

def write_trajectory_csv(fp, traj: Trajectory) -> None:
    """Rows (t, x, y, theta, d), 32 per stage and one for the end pose; d, a
    tube radius, is 0 on a closed-loop trajectory."""
    if not traj.stages:
        raise ValueError("empty trajectory has no end pose")
    writer = csv.writer(fp)
    writer.writerow(["t", "x", "y", "theta", "d"])
    t0 = 0.0
    for st in traj.stages:
        for i in range(32):
            lt = st.duration * i / 32
            x, y = st.position_at(lt)
            th = st.theta0 + st.omega * lt
            writer.writerow([repr(t0 + lt), repr(x), repr(y), repr(th % TWO_PI), "0.0"])
        t0 += st.duration
    end = traj.stages[-1]
    writer.writerow([repr(t0), repr(end.x1), repr(end.y1), repr(end.theta1), "0.0"])


def read_trajectory_csv(fp) -> list[tuple[float, float, float, float, float]]:
    """Rows (t, x, y, theta, d): the first five cells of each non-empty row,
    which must be finite numbers; anything else is an error naming the CSV
    line (min/max would pass a NaN on to the plot)."""
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:5]] != ["t", "x", "y", "theta", "d"]:
        raise ValueError("trajectory CSV must start with header t,x,y,theta,d")
    out = []
    for row in reader:
        if not row:
            continue
        try:
            cells = tuple(float(v) for v in row[:5])
        except ValueError:
            cells = ()
        if len(cells) < 5 or not all(map(math.isfinite, cells)):
            raise ValueError(f"trajectory CSV line {reader.line_num}: a row must be five "
                             f"finite numbers t,x,y,theta,d, got "
                             f"{','.join(v.strip() for v in row)!r}")
        out.append(cells)
    return out


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
            raise ValueError(f"trace CSV line {reader.line_num}: a row must be "
                             f"label,duration, got {','.join(row)!r}")
        label = row[0].strip() or None
        try:
            duration = float(row[1])
        except ValueError:
            duration = math.nan  # rejected below, naming the line
        if not 0.0 <= duration < math.inf:  # a NaN passes every time bound
            raise ValueError(f"trace CSV line {reader.line_num}: duration must be finite "
                             f"and non-negative, got {row[1].strip()!r}")
        if out and out[-1][0] == label:
            raise ValueError(f"trace CSV line {reader.line_num}: label {row[0].strip()!r} "
                             "repeats the previous row's; consecutive labels must differ")
        out.append((label, duration))
    if not out:
        raise ValueError("trace CSV has no states")
    return out

