"""Independent oracles used by the tests: a fixed-step RK4 integrator for the
vehicle kinematics, vectorised positions along one segment or many, a random generator
of mission instances, a closed-form Beta posterior for the all-success
estimation run, a dense-sampling check of timed traces with a random
generator of trace geometries, the straightforward forms of the episode
kernel (eight ``integrate_segment`` corners per stage, scalar draws through
``Generator.choice`` and a per-call ``np.cumsum``) that the table-driven
kernel must reproduce bit for bit, and the pair-keyed forms of the synthesis
step (Q estimates per (history, action) pair, one policy row per history)
that the state-indexed tables must reproduce bit for bit, a generator
whose next uniform draw is a chosen value, validation from whole-horizon
closed-loop runs, and the event-time solver that solves every edge of every
near rectangle, which ``tracegen.stage_intervals`` must reproduce bit for
bit."""

import math
from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

from bltlsynth.bltl import Disjunct, Phase, SequentialSpec, horizon_stages, to_sequential
from bltlsynth.dynamics import (OMEGA_STRAIGHT_EPS, Pose, angle_diff, integrate_segment,
                                wheel_to_body)
from bltlsynth.env import Environment, Rect, Region
from bltlsynth.mdp import EMPTY_HISTORY, STREAM_VALIDATE, episode_rng
from bltlsynth.synthesis import bie_estimate, simulate_true_system
from bltlsynth.tracegen import (_BOX_PAD, _TANGENT_SLACK, BREAKPOINT_TOL, Interval, Rule, Stage,
                                StageIntervals, Trajectory, _inside, _touches, make_stage)
from bltlsynth.uncertainty import NominalStageState


def rk4_pose(params, q0, w_r, w_l, tau, step=1e-4):
    """Integrate the kinematics with classic RK4; returns (x, y, theta),
    theta unwrapped."""
    r = params.wheel_radius
    v = r * (w_r + w_l) / 2.0
    om = r * (w_r - w_l) / params.wheel_separation
    n = max(1, int(round(tau / step)))
    h = tau / n
    x, y, th = q0.x, q0.y, q0.theta
    for _ in range(n):
        k1x, k1y = v * math.cos(th), v * math.sin(th)
        thm = th + om * h / 2.0
        k2x, k2y = v * math.cos(thm), v * math.sin(thm)
        k3x, k3y = k2x, k2y
        the = th + om * h
        k4x, k4y = v * math.cos(the), v * math.sin(the)
        x += h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y += h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        th = the
    return x, y, th


def segment_positions(params, q0, w_r, w_l, taus):
    """Positions along one constant-input segment at each local time in taus."""
    v, omega = wheel_to_body(params, w_r, w_l)
    taus = np.asarray(taus, dtype=float)
    if abs(omega) < OMEGA_STRAIGHT_EPS:
        xs = q0.x + v * taus * math.cos(q0.theta)
        ys = q0.y + v * taus * math.sin(q0.theta)
        return xs, ys
    th = q0.theta + omega * taus
    xs = q0.x + (v / omega) * (np.sin(th) - math.sin(q0.theta))
    ys = q0.y - (v / omega) * (np.cos(th) - math.cos(q0.theta))
    return xs, ys


def segment_positions_batch(params, x0, y0, th0, w_r, w_l, taus):
    """Positions along many constant-input segments at each local time in
    taus.  Start poses (x0, y0, th0) and wheel speeds (w_r, w_l) are arrays of
    one shape; the positions have that shape plus one axis for taus."""
    v, omega = wheel_to_body(params, w_r, w_l)
    straight = (np.abs(omega) < OMEGA_STRAIGHT_EPS)[..., None]
    turn = np.where(straight, 1.0, omega[..., None])
    ts = np.asarray(taus, dtype=float)
    v, x0, y0, th0 = v[..., None], x0[..., None], y0[..., None], th0[..., None]
    sin0, cos0 = np.sin(th0), np.cos(th0)
    th = th0 + turn * ts
    xs = np.where(straight, x0 + v * ts * cos0, x0 + (v / turn) * (np.sin(th) - sin0))
    ys = np.where(straight, y0 + v * ts * sin0, y0 - (v / turn) * (np.cos(th) - cos0))
    return xs, ys


def chained_positions(params, q0, w_r, w_l, taus):
    """Positions along chains of params.dt-long stages from q0, one chain per
    row of the (n, K) wheel-speed arrays, at each local time in taus: arrays
    of shape (n, K, len(taus))."""
    v, omega = wheel_to_body(params, w_r, w_l)
    straight = np.abs(omega) < OMEGA_STRAIGHT_EPS
    turn = np.where(straight, 1.0, omega)
    zero = np.zeros((len(w_r), 1))
    th = q0.theta + np.cumsum(np.hstack([zero, np.where(straight, 0.0, omega) * params.dt]),
                              axis=1)
    sin, cos = np.sin(th), np.cos(th)
    dx = np.where(straight, v * params.dt * cos[:, :-1], (v / turn) * (sin[:, 1:] - sin[:, :-1]))
    dy = np.where(straight, v * params.dt * sin[:, :-1], -(v / turn) * (cos[:, 1:] - cos[:, :-1]))
    x = q0.x + np.cumsum(np.hstack([zero, dx[:, :-1]]), axis=1)
    y = q0.y + np.cumsum(np.hstack([zero, dy[:, :-1]]), axis=1)
    return segment_positions_batch(params, x, y, th[:, :-1], w_r, w_l, taus)


def propagate_stage_corners(prev, action, interval, params, nm):
    """One tube stage with a Pose per corner: ``integrate_segment`` from each
    extreme start orientation under each wheel-speed corner of the measured
    interval.  Returns (NominalStageState, Stage)."""
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


def tile_by_cumsum(wheel_noise, u):
    """Noise tile (1-based) for u by inverse CDF over a fresh np.cumsum."""
    cum = np.cumsum(wheel_noise.probs)
    return min(bisect_right(cum, u) + 1, wheel_noise.n)


def _untemper(y):
    """Inverse of MT19937's output tempering."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    r = y
    for _ in range(5):
        r = y ^ ((r << 7) & 0x9d2c5680)
    y = r & 0xffffffff
    r = y
    for _ in range(3):
        r = y ^ (r >> 11)
    return r & 0xffffffff


def generator_drawing(u):
    """A Generator whose next ``random()`` is u, a multiple of 2**-53 in
    [0, 1): an MT19937 whose next two state words temper to the two halves
    ``random()`` combines (27 and 26 bits)."""
    n = int(u * 2.0 ** 53)
    if n / 2.0 ** 53 != u or not 0 <= n < 2 ** 53:
        raise ValueError(f"random() cannot return {u!r}")
    bit_gen = np.random.MT19937(0)
    state = bit_gen.state
    key = state["state"]["key"].copy()
    key[0] = _untemper((n >> 26) << 5)
    key[1] = _untemper((n & (2 ** 26 - 1)) << 6)
    state["state"] = {"key": key, "pos": 0}
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def sample_history_scalar(policy, nm, horizon, rng):
    """Roll the chain with one scalar draw per decision: ``rng.choice`` over
    the state's row for a stochastic policy, then the right and the left
    tile.  Unseen states take action 0 or a uniform row."""
    history = EMPTY_HISTORY
    for _ in range(horizon):
        i = policy.index.get(history)
        if policy.actions is not None:
            action = 0 if i is None else policy.actions[i]
        else:
            row = (np.full(policy.n_actions, 1.0 / policy.n_actions) if i is None
                   else policy.probs[i])
            action = int(rng.choice(policy.n_actions, p=row))
        j_r = tile_by_cumsum(nm.right, rng.random())
        j_l = tile_by_cumsum(nm.left, rng.random())
        history = history + ((action, j_r, j_l),)
    return history


def merged_pairs(entries, counts, history_weight):
    """Pair-keyed Q estimates: ``entries`` maps (history, action) to
    (estimate, visits) and ``counts`` to the round's (satisfied, visits).
    Pairs seen before take h*old + (1-h)*fresh, first-time pairs the fresh
    ratio, untouched pairs carry over."""
    h = history_weight
    out = dict(entries)
    for key, (sat, visits) in counts.items():
        fresh = sat / visits
        prev = out.get(key)
        if prev is None:
            out[key] = (fresh, visits)
        else:
            out[key] = (h * prev[0] + (1.0 - h) * fresh, prev[1] + visits)
    return out


def pair_counts(results):
    """Per (history prefix, action) pair: (satisfied, visits) over episodes
    given as (history, verdict)."""
    counts = {}
    for history, satisfied in results:
        for k, step in enumerate(history):
            sat, visits = counts.get((history[:k], step[0]), (0, 0))
            counts[(history[:k], step[0])] = (sat + satisfied, visits + 1)
    return counts


def improve_rows(rows, n_actions, entries, greediness):
    """One row per history: each state in the pair table moves to
    (1-g) * old row + g * indicator(best-rated action, ties to the lowest),
    starting from the uniform row if it has none; other rows are left alone."""
    g = greediness
    by_state = {}
    for (state, action), (estimate, _) in entries.items():
        by_state.setdefault(state, {})[action] = estimate
    out = {s: row.copy() for s, row in rows.items()}
    for state, ests in by_state.items():
        best = min(ests, key=lambda a: (-ests[a], a))
        base = rows.get(state, np.full(n_actions, 1.0 / n_actions))
        row = (1.0 - g) * base
        row[best] += g
        out[state] = row
    return out


def determinize_rows(rows):
    """Argmax action of each row."""
    return {state: int(np.argmax(row)) for state, row in rows.items()}


def whole_horizon_validation(policy, env, formula, params, nm, *, delta, confidence,
                             prior_alpha, prior_beta, master_seed, batch_size=1):
    """``bie_estimate`` over the verdicts of whole-horizon closed-loop runs
    (``simulate_true_system``) on the validation episode streams."""
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)

    def draw(start, count):
        return [simulate_true_system(policy, env, spec, params, nm, horizon,
                                     episode_rng(master_seed, STREAM_VALIDATE, 0, i))[2]
                for i in range(start, start + count)]

    return bie_estimate(draw, delta, confidence, prior_alpha, prior_beta,
                        batch_size=batch_size)


DURATION_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
BOUND_GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


def random_trace(rng: np.random.Generator, props, max_len=12):
    """Alternating-label timed trace with grid durations (to hit boundary
    ties in the checkers)."""
    labels = list(props) + [None, None]
    length = int(rng.integers(1, max_len + 1))
    out = []
    prev = object()
    for _ in range(length):
        label = labels[int(rng.integers(len(labels)))]
        while label == prev:
            label = labels[int(rng.integers(len(labels)))]
        out.append((label, float(DURATION_GRID[int(rng.integers(len(DURATION_GRID)))])))
        prev = label
    return out


def random_spec(rng: np.random.Generator, goal_props, unsafe="u",
                max_phases=3, max_disjuncts=2) -> SequentialSpec:
    phases = []
    for _ in range(int(rng.integers(1, max_phases + 1))):
        disjuncts = []
        for _ in range(int(rng.integers(1, max_disjuncts + 1))):
            k = int(rng.integers(1, 3))
            props = tuple(rng.choice(goal_props, size=k, replace=False))
            dwell = float(BOUND_GRID[int(rng.integers(len(BOUND_GRID)))])
            disjuncts.append(Disjunct(dwell, props))
        bound = float(BOUND_GRID[int(rng.integers(len(BOUND_GRID)))])
        phases.append(Phase(bound, tuple(disjuncts)))
    return SequentialSpec(unsafe=unsafe, phases=tuple(phases))


def all_success_stop_count(alpha: float, beta: float, delta: float,
                           confidence: float) -> int:
    """Smallest n at which an all-success run satisfies the posterior
    concentration rule, from the closed-form Beta(n+alpha, beta) distribution
    evaluated with mpmath-free arithmetic.

    For integer beta the distribution function is a finite sum; with beta = 1
    it is simply z**a.
    """
    from scipy.special import betainc

    n = 0
    while True:
        n += 1
        a, b = n + alpha, beta
        p_hat = (n + alpha) / (n + alpha + beta)
        lo = max(0.0, p_hat - delta)
        hi = min(1.0, p_hat + delta)
        mass = betainc(a, b, hi) - betainc(a, b, lo)
        if beta == 1.0 and hi == 1.0:
            closed = 1.0 - lo ** a
            assert abs(closed - mass) < 1e-12
        if mass >= confidence:
            return n


def labels_holding(env, x, y, d, tube):
    """Labels whose trace predicate holds for the disc of radius d at (x, y).

    For a tube, a goal label needs the disc inside one of its rectangles and
    the unsafe label needs contact with one; for a point (tube False) every
    label needs contact, which at d = 0 is membership in a rectangle.
    """
    out = set()
    for reg in env.regions:
        r = reg.rect
        if tube and reg.label != env.unsafe:
            if r.x0 + d <= x <= r.x1 - d and r.y0 + d <= y <= r.y1 - d:
                out.add(reg.label)
        else:
            nx, ny = min(max(x, r.x0), r.x1), min(max(y, r.y0), r.y1)
            if (x - nx) ** 2 + (y - ny) ** 2 <= d * d:
                out.add(reg.label)
    return out


def dense_trace_disagreements(trace, traj, radii, env, tube, samples_per_stage=300,
                              margin=1e-6):
    """Sample each stage densely and return the (time, state label, labels
    holding) triples where a trace state disagrees with the predicates.

    Only sample times more than ``margin`` inside a state count.  A labeled
    state needs its label's predicate; an unlabeled one needs that no
    predicate holds.
    """
    ends = []
    acc = 0.0
    for _, dur in trace:
        acc += dur
        ends.append(acc)
    bad = []
    t0 = 0.0
    j = 0
    for k, st in enumerate(traj.stages):
        for i in range(samples_per_stage):
            lt = (i + 0.5) * st.duration / samples_per_stage
            t = t0 + lt
            while j < len(ends) - 1 and ends[j] <= t:
                j += 1
            start = ends[j - 1] if j else 0.0
            if t - start <= margin or ends[j] - t <= margin:
                continue
            x, y = st.position_at(lt)
            holding = labels_holding(env, x, y, radii[k], tube)
            label = trace[j][0]
            if (holding if label is None else label not in holding):
                bad.append((t, label, holding))
        t0 += st.duration
    return bad


def random_trace_case(rng: np.random.Generator, params, tube: bool):
    """Random chained stages, disc radii and labeled rectangles for the trace
    property test.

    Stages are straight lines, spins in place, gentle arcs or arcs sweeping
    more than pi.  The layout always has a rectangle whose corner the path
    (or, for a tube, the disc) touches tangentially at one instant, often a
    goal rectangle with an edge through the start, and random rectangles
    placed along the path.  Returns (trajectory, radii, environment).
    """
    r, sep = params.wheel_radius, params.wheel_separation
    pose = Pose(0.0, 0.0, float(rng.uniform(0, 2 * math.pi)))
    stages = []
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(4))
        duration = float(rng.uniform(0.5, 3.0))
        v = 0.0 if kind == 1 else float(rng.uniform(0.1, 0.5))
        if kind == 0:
            omega = 0.0
        elif kind == 3:
            omega = float(rng.uniform(math.pi, 4 * math.pi)) / duration
        else:
            omega = float(rng.uniform(0.1, 1.5))
        omega *= float(rng.choice([-1.0, 1.0]))
        if kind == 1:
            w = omega * sep / (2 * r)
            w_r, w_l = w, -w
        else:
            w_r, w_l = (v + omega * sep / 2) / r, (v - omega * sep / 2) / r
        st = make_stage(params, pose, w_r, w_l, duration)
        stages.append(st)
        pose = st.end
    traj = Trajectory(tuple(stages))
    if tube:
        radii = np.cumsum(rng.uniform(0.0, 0.15, size=len(stages)))
        if rng.random() < 0.3:
            radii -= radii[0]
        radii = tuple(float(d) for d in radii)
    else:
        radii = (0.0,) * len(stages)

    start = traj.stages[0].start
    rects = []  # (label, Rect)

    def free(rect, label):
        if label == "u" and rect.contains_point(start.x, start.y):
            return False
        return not any(rect.interior_overlaps(other) for _, other in rects)

    # tangential corner touch at one instant of a moving stage
    moving = [k for k, st in enumerate(traj.stages) if st.v != 0.0]
    if moving:
        k = moving[int(rng.integers(len(moving)))]
        st = traj.stages[k]
        lt = float(rng.uniform(0.1, 0.9)) * st.duration
        px, py = st.position_at(lt)
        if st.omega == 0.0:
            side = float(rng.choice([-1.0, 1.0]))
            nx, ny = -side * math.sin(st.start.theta), side * math.cos(st.start.theta)
        else:
            rad = st.v / st.omega
            cx = st.start.x - rad * math.sin(st.start.theta)
            cy = st.start.y + rad * math.cos(st.start.theta)
            norm = math.hypot(px - cx, py - cy)
            nx, ny = (px - cx) / norm, (py - cy) / norm
        d = radii[k]
        corner_x, corner_y = px + d * nx, py + d * ny
        w, h = float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.05, 0.6))
        xs = sorted((corner_x, corner_x + (w if nx >= 0 else -w)))
        ys = sorted((corner_y, corner_y + (h if ny >= 0 else -h)))
        label = str(rng.choice(["u", "a", "b"]))
        rect = Rect(xs[0], ys[0], xs[1], ys[1])
        if free(rect, label):
            rects.append((label, rect))
    # a goal rectangle with one edge through the start
    if rng.random() < 0.5:
        w, h = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        x0 = start.x - (w if rng.random() < 0.5 else 0.0)
        y0 = start.y - float(rng.uniform(0.0, h))
        rect = Rect(x0, y0, x0 + w, y0 + h)
        if free(rect, "a"):
            rects.append(("a", rect))
    for _ in range(int(rng.integers(2, 9))):
        st = traj.stages[int(rng.integers(len(traj.stages)))]
        px, py = st.position_at(float(rng.uniform(0, st.duration)))
        hw, hh = float(rng.uniform(0.01, 0.5)), float(rng.uniform(0.01, 0.5))
        cx, cy = px + float(rng.normal(0, 0.2)), py + float(rng.normal(0, 0.2))
        label = str(rng.choice(["u", "a", "b"]))
        rect = Rect(cx - hw, cy - hh, cx + hw, cy + hh)
        if free(rect, label):
            rects.append((label, rect))
    env = Environment(
        regions=tuple(Region(f"r{i}", label, rect) for i, (label, rect) in enumerate(rects)),
        propositions=frozenset(("u", "a", "b")), unsafe="u",
        initial_pose=start, bounds=Rect(-100.0, -100.0, 100.0, 100.0))
    return traj, radii, env


# ---------------------------------------------------------------------------
# The closed-form event-time solver that solves every edge of every near
# rectangle, the reference for tracegen.stage_intervals

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


def stage_intervals_reference(rules: Sequence[Rule], stage: Stage, d: float,
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
