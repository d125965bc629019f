"""Independent oracles used by the tests: a fixed-step RK4 integrator for the
vehicle kinematics, vectorised positions along one segment or many, a random generator
of mission instances, the stop count of the all-success estimation run and
the Bayesian interval estimate with scipy's incomplete Beta function, a
dense-sampling check of timed traces with a random generator of trace
geometries, the mission formula of a phase decomposition
and a generic bounded-semantics checker over it, the one-step kernel of the
measurement-history MDP, a trace CSV writer, the object-based forms of the
episode kernel (a ``Pose`` per integrated pose, eight ``make_stage`` corners
per stage, per-call noise draws that look their wheel up by name, the closed
loop's stages built from them, scalar draws through ``Generator.choice`` and a
per-call ``np.cumsum``) that the flat, table-driven kernel must reproduce bit
for bit (the corners' radius and spread it must bound from above), and the
pair-keyed forms of the synthesis
step (Q estimates per (history, action) pair, one policy row per history)
that the state-indexed tables must reproduce bit for bit, a generator
whose next uniform draw is a chosen value, validation from whole-horizon
closed-loop runs, the event-time solver that solves every edge of every
near rectangle, which ``tracegen.stage_intervals`` must reproduce bit for
bit, the trace walk run once on whole-trajectory interval lists, whose
trace the walk fed stage by stage must close step by step, a walk's monitor
that records the steps pushed into it, and an episode's generator built
directly with numpy's public API (a Philox keyed by the stream's seed
sequence, the episode index in its counter), which ``mdp.EpisodeStream`` must reproduce bit for bit, the
policy-file key of one history, which ``cli``'s writer must reproduce, and
the exact chain value of a deterministic policy, by a search of its history
tree."""

import csv
import math
from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

from bltlsynth.bltl import (Always, And, Atom, Disjunct, Eventually, Formula, Not, Or, Phase,
                            SequentialMonitor, SequentialSpec, TraceStep, Until, _flatten_or,
                            horizon_stages, to_sequential)
from bltlsynth.dynamics import (OMEGA_STRAIGHT_EPS, NoiseModel, Pose, VehicleParams,
                                WheelNoise, angle_diff, wheel_to_body)
from bltlsynth.env import Environment, Rect, Region
from bltlsynth.mdp import EMPTY_HISTORY, STREAM_VALIDATE, HistoryKey
from bltlsynth.synthesis import bie_estimate, simulate_true_system
from bltlsynth.tracegen import (_BOX_PAD, _TANGENT_SLACK, BREAKPOINT_TOL, Interval, Rule, Stage,
                                StageIntervals, TraceWalk, Trajectory, _inside, _touches,
                                decide_tube, stage_intervals, tube_rules)
from bltlsynth.uncertainty import propagate_stage


def episode_rng(master_seed: int, purpose: int, round_index: int,
                episode_index: int) -> np.random.Generator:
    """An episode's generator, built directly: numpy's Philox keyed by the
    stream's seed sequence, with the episode index as the counter's second
    word."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(purpose, round_index))
    counter = np.array([0, episode_index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64),
                                                counter=counter))


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


def integrate_pose(q0: Pose, v: float, omega: float, tau: float) -> Pose:
    """Propagate the pose for tau seconds at constant body speed v and turn
    rate omega: a straight line below OMEGA_STRAIGHT_EPS, else an arc."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if abs(omega) < OMEGA_STRAIGHT_EPS:
        return Pose(q0.x + v * tau * math.cos(q0.theta),
                    q0.y + v * tau * math.sin(q0.theta),
                    q0.theta)
    th1 = q0.theta + omega * tau
    x1 = q0.x + (v / omega) * (math.sin(th1) - math.sin(q0.theta))
    y1 = q0.y - (v / omega) * (math.cos(th1) - math.cos(q0.theta))
    return Pose(x1, y1, th1)


def pose_stage(start: Pose, w_r: float, w_l: float, duration: float, v: float,
               omega: float) -> Stage:
    """The stage record of a constant-input segment from a start pose, its
    end integrated as a ``Pose``."""
    end = integrate_pose(start, v, omega, duration)
    return Stage(start.x, start.y, start.theta, w_r, w_l, v, omega, duration,
                 end.x, end.y, end.theta)


def make_stage(params: VehicleParams, start: Pose, w_r: float, w_l: float,
               duration: float) -> Stage:
    """The stage of wheel speeds (w_r, w_l) held for ``duration`` from a start pose."""
    v, omega = wheel_to_body(params, w_r, w_l)
    return pose_stage(start, w_r, w_l, duration, v, omega)


def stage_end(params: VehicleParams, start: Pose, w_r: float, w_l: float,
              duration: float) -> Pose:
    """The end pose of ``make_stage``."""
    return end_pose(make_stage(params, start, w_r, w_l, duration))


def stored_pose(x: float, y: float, theta: float) -> Pose:
    """The ``Pose`` that stores the heading theta, already wrapped as it is:
    ``Pose(x, y, theta)`` would wrap it again, which moves a stored 2*pi
    (a tiny negative angle, wrapped) to 0."""
    pose = Pose(x, y, theta)
    object.__setattr__(pose, "theta", theta)
    return pose


def start_pose(stage: Stage) -> Pose:
    return stored_pose(stage.x0, stage.y0, stage.theta0)


def end_pose(stage: Stage) -> Pose:
    return stored_pose(stage.x1, stage.y1, stage.theta1)


def propagate_stage_corners(prev, action, interval, params, nm):
    """One tube stage with a Pose per corner: ``make_stage`` from each
    extreme start orientation under each wheel-speed corner of the measured
    interval.  ``prev`` is the tube state (x, y, theta, d, dtheta); returns
    the next one and the nominal Stage.  Its radius and spread are the
    largest stage-end corner deviations, a lower bound on the closed form of
    ``uncertainty.propagate_stage``."""
    x, y, theta, d, dtheta = prev
    pose = stored_pose(x, y, theta)
    u_r, u_l = action
    mid_r = nm.right.midpoint(interval.j_r)
    mid_l = nm.left.midpoint(interval.j_l)
    stage = make_stage(params, pose, u_r + mid_r, u_l + mid_l, params.dt)
    nominal = end_pose(stage)
    worst_d = 0.0
    worst_th = 0.0
    alphas = (dtheta, -dtheta) if dtheta > 0 else (0.0,)
    for alpha in alphas:
        start = Pose(pose.x, pose.y, pose.theta + alpha)
        for w_r in (interval.r_lo, interval.r_hi):
            for w_l in (interval.l_lo, interval.l_hi):
                q = stage_end(params, start, w_r, w_l, params.dt)
                dist = ((q.x - nominal.x) ** 2 + (q.y - nominal.y) ** 2) ** 0.5
                worst_d = max(worst_d, dist)
                worst_th = max(worst_th, angle_diff(nominal.theta, q.theta))
    return (nominal.x, nominal.y, nominal.theta, d + worst_d, worst_th), stage


def wheel_noise(nm: NoiseModel, wheel: str) -> WheelNoise:
    """The right ('r') or left ('l') wheel's noise."""
    if wheel == "r":
        return nm.right
    if wheel == "l":
        return nm.left
    raise ValueError(f"wheel must be 'r' or 'l', got {wheel!r}")


def sample_noise_interval(nm: NoiseModel, wheel: str, u: float) -> int:
    """Draw a noise-interval index (1-based) by inverse CDF from u in [0, 1)."""
    wn = wheel_noise(nm, wheel)
    return min(bisect_right(wn.cdf, u) + 1, wn.n)


def sample_noise_in_interval(nm: NoiseModel, wheel: str, j: int, u: float) -> float:
    """Draw a noise value uniformly inside interval j (u in [0, 1))."""
    lo, hi = wheel_noise(nm, wheel).interval(j)
    return lo + u * (hi - lo)


def closed_loop_stages_reference(policy, env, params, nm, horizon, rng):
    """The closed loop's stages under the strategy, each with the history
    that ends with its encoder reading, built as ``make_stage`` Stages from
    ``Pose``s with a per-call noise draw per wheel: four uniforms per stage,
    one ``rng.random(4 * horizon)`` draw up front."""
    pose = env.initial_pose
    history = EMPTY_HISTORY
    u = rng.random(4 * horizon).tolist()
    out = []
    for i in range(0, 4 * horizon, 4):
        action = policy.best_action(history)
        u_r, u_l = params.actions[action]
        j_r = sample_noise_interval(nm, "r", u[i])
        eps_r = sample_noise_in_interval(nm, "r", j_r, u[i + 1])
        j_l = sample_noise_interval(nm, "l", u[i + 2])
        eps_l = sample_noise_in_interval(nm, "l", j_l, u[i + 3])
        stage = make_stage(params, pose, u_r + eps_r, u_l + eps_l, params.dt)
        pose = end_pose(stage)
        history = history + ((action, j_r, j_l),)
        out.append((stage, history))
    return out


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


def follow(history):
    """The ``PathSampler.decide`` rule that takes the steps of a given
    history in turn."""
    return lambda so_far: history[len(so_far)]


def replay_decision(sampler, history):
    """Verdict of a horizon-long history and the stage that fixes it, with no
    prefix table: the whole tube that ``finish`` builds, fed stage by stage
    through a fresh walk and monitor (``decide_tube``)."""
    tube = sampler.finish(history).tube
    walk = TraceWalk(tube_rules(sampler.env), sampler.env.unsafe, SequentialMonitor(sampler.spec))
    return decide_tube(walk, zip(tube.trajectory.stages, tube.radii))


def exact_chain_value(sampler, policy):
    """The exact probability that the chain under a deterministic ``policy``
    satisfies the mission, and the number of history-tree nodes it takes:
    P(h) = sum of p(j_r)·p(j_l)·P(h + (a, j_r, j_l)) over the tile pairs of
    the policy's action a at h, with a leaf wherever the monitor's verdict is
    fixed and, at the horizon, the verdict of the finished walk.  The depth-
    first search carries the tube state, the walk and the monitor down the
    tree, so each node costs one stage (``propagate_stage`` and
    ``walk.append``) from its parent's snapshots."""
    assert policy.deterministic
    probs_r, probs_l = sampler.nm.right.probs, sampler.nm.left.probs
    monitor = SequentialMonitor(sampler.spec)
    walk = TraceWalk(tube_rules(sampler.env), sampler.env.unsafe, monitor)
    nodes = 0

    def value(history, state, walk_state, monitor_state):
        nonlocal nodes
        action = policy.best_action(history)
        total = 0.0
        for j_r, p_r in enumerate(probs_r, 1):
            for j_l, p_l in enumerate(probs_l, 1):
                nodes += 1
                step = (action, j_r, j_l)
                walk.restore(walk_state)
                monitor.restore(monitor_state)
                child, stage = propagate_stage(state, sampler.terms[step])
                walk.append(stage, child[3])
                if monitor.verdict is None and len(history) + 1 < sampler.horizon:
                    total += p_r * p_l * value(history + (step,), child, walk.snapshot(),
                                               monitor.snapshot())
                    continue
                if monitor.verdict is None:
                    walk.finish()
                total += p_r * p_l * monitor.result()
        return total

    return value(EMPTY_HISTORY, sampler._origin, walk.snapshot(), monitor.snapshot()), nodes


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


def history_key_string(history):
    """The policy-file key of a history: its steps' ``a,jr,jl`` texts joined
    by ``;``."""
    return ";".join(f"{a},{jr},{jl}" for a, jr, jl in history)


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


def whole_horizon_validation(policy, env, formula, params, nm, algorithm, *, master_seed):
    """``bie_estimate`` with the algorithm's estimation parameters over the
    verdicts of whole-horizon closed-loop runs (``simulate_true_system``) on
    the validation episode streams."""
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)

    def draw(start, count):
        return [simulate_true_system(policy, env, spec, params, nm, horizon,
                                     episode_rng(master_seed, STREAM_VALIDATE, 0, i))[2]
                for i in range(start, start + count)]

    return bie_estimate(draw, algorithm.delta, algorithm.confidence, algorithm.prior_alpha,
                        algorithm.prior_beta, batch_size=algorithm.batch_size)


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


def beta_cdf_reference(x: float, a: float, b: float) -> float:
    """scipy's regularized incomplete Beta function I_x(a, b), which
    ``synthesis.beta_cdf`` must match (scipy is a test dependency only)."""
    from scipy.special import betainc

    return float(betainc(a, b, x))


def all_success_stop_count(alpha: float, beta: float, delta: float,
                           confidence: float) -> int:
    """Smallest n at which an all-success run satisfies the posterior
    concentration rule, with the Beta(n+alpha, beta) mass evaluated by scipy.

    With beta = 1 the distribution function is simply z**a, and each step
    checks scipy against that closed form.
    """
    n = 0
    while True:
        n += 1
        a, b = n + alpha, beta
        p_hat = (n + alpha) / (n + alpha + beta)
        lo = max(0.0, p_hat - delta)
        hi = min(1.0, p_hat + delta)
        mass = beta_cdf_reference(hi, a, b) - beta_cdf_reference(lo, a, b)
        if beta == 1.0 and hi == 1.0:
            closed = 1.0 - lo ** a
            assert abs(closed - mass) < 1e-12
        if mass >= confidence:
            return n


def bie_estimate_reference(draw, delta: float, confidence: float, alpha: float,
                           beta: float, batch_size: int = 1) -> tuple[int, int, float, float, float]:
    """(n, successes, lo, hi, coverage) of the Bayesian interval estimate with
    the exact posterior mass from scipy's ``betainc`` after every batch, which
    ``synthesis.bie_estimate`` must reproduce."""
    n = x = 0
    while True:
        x += sum(bool(v) for v in draw(n, batch_size))
        n += batch_size
        p_hat = (x + alpha) / (n + alpha + beta)
        lo = max(0.0, p_hat - delta)
        hi = min(1.0, p_hat + delta)
        a, b = x + alpha, n - x + beta
        coverage = beta_cdf_reference(hi, a, b) - beta_cdf_reference(lo, a, b)
        if coverage >= confidence:
            return n, x, lo, hi, coverage


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
        pose = end_pose(st)
    traj = Trajectory(tuple(stages))
    if tube:
        radii = np.cumsum(rng.uniform(0.0, 0.15, size=len(stages)))
        if rng.random() < 0.3:
            radii -= radii[0]
        radii = tuple(float(d) for d in radii)
    else:
        radii = (0.0,) * len(stages)

    start = start_pose(traj.stages[0])
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
            nx, ny = -side * math.sin(st.theta0), side * math.cos(st.theta0)
        else:
            rad = st.v / st.omega
            cx = st.x0 - rad * math.sin(st.theta0)
            cy = st.y0 + rad * math.cos(st.theta0)
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
        x0, y0, theta0, x1, y1 = stage.x0, stage.y0, stage.theta0, stage.x1, stage.y1
        self.straight = abs(stage.omega) < OMEGA_STRAIGHT_EPS
        if self.straight:
            self.x0, self.y0 = x0, y0
            self.vx = stage.v * math.cos(theta0)
            self.vy = stage.v * math.sin(theta0)
        else:
            self.theta0, self.omega = theta0, stage.omega
            self.radius = stage.v / stage.omega
            self.cx = x0 - self.radius * math.sin(theta0)
            self.cy = y0 + self.radius * math.cos(theta0)
        # Bounding disc: a sweep of at most pi stays in the disc that has the
        # chord as diameter; a longer one only in the full circle.
        if self.straight or abs(stage.omega) * stage.duration <= math.pi:
            mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            rho = math.hypot(x1 - x0, y1 - y0) / 2.0
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


def one_shot_trace(rules: Sequence[Rule], unsafe: str, stages: Sequence[Stage],
                   radii: Sequence[float]) -> list[TraceStep]:
    """The walk finished once on whole-trajectory interval lists: every
    stage's ``stage_intervals`` at its start time, merged into each rule's
    list (an interval that starts within BREAKPOINT_TOL of the end of the
    list's last one extends it), with no step closed before the last stage."""
    pushes = PushRecord()
    walk = TraceWalk(rules, unsafe, pushes)
    t0 = 0.0
    for stage, d in zip(stages, radii):
        for ivs, new in zip(walk.lists, stage_intervals(rules, stage, d, t0)):
            for lo, hi in new:
                if ivs and ivs[-1][1] >= lo - BREAKPOINT_TOL:
                    ivs[-1] = (ivs[-1][0], hi)
                else:
                    ivs.append((lo, hi))
        t0 += stage.duration
    walk.total = t0
    walk.finish()
    return pushes.closed


class PushRecord:
    """A walk's monitor that records what the walk pushes: ``closed``, the
    closed steps in order, and ``open``, the last open step (None until one
    comes; clear it before a stage to see that stage's alone)."""

    def __init__(self):
        self.closed: list[TraceStep] = []
        self.open: Optional[TraceStep] = None

    def push(self, label: Optional[str], duration: float, closed: bool = True) -> None:
        if closed:
            self.closed.append((label, duration))
        else:
            self.open = (label, duration)


# ---------------------------------------------------------------------------
# Mission formulas and the generic bounded-semantics checker

def spec_to_formula(spec: SequentialSpec) -> Formula:
    """Rebuild the mission formula from its phase decomposition."""

    def guard(dis: Disjunct) -> Formula:
        body: Formula = Atom(dis.props[0])
        for name in dis.props[1:]:
            body = Or(body, Atom(name))
        return Always(body, dis.dwell)

    def phase_formula(ph: Phase) -> Formula:
        phi: Formula = guard(ph.disjuncts[0])
        for dis in ph.disjuncts[1:]:
            phi = Or(phi, guard(dis))
        return phi

    not_u: Formula = Not(Atom(spec.unsafe))
    body = phase_formula(spec.phases[-1])
    for j in range(len(spec.phases) - 2, -1, -1):
        body = And(phase_formula(spec.phases[j]),
                   Until(not_u, body, spec.phases[j + 1].time_bound))
    return Until(not_u, body, spec.phases[0].time_bound)


def _atomic_disjunction(phi: Formula) -> Optional[frozenset[str]]:
    """The atom set if phi is an atom or a pure disjunction of atoms."""
    parts = _flatten_or(phi)
    if all(isinstance(p, Atom) for p in parts):
        return frozenset(p.name for p in parts)
    return None


def check_generic(trace: Sequence[TraceStep], phi: Formula) -> bool:
    """Evaluate an arbitrary bounded formula over the timed trace.

    Suffix semantics: an until holds at position i if its right side holds at
    some position k with the time accumulated over [i, k) at most the bound
    and the left side holding on [i, k).  A bounded-always over a disjunction
    of atoms is evaluated within the current state (label in the set, dwell at
    least the bound), matching how a single region visit carries a dwell; over
    general subformulas it requires the subformula at every position starting
    within the window and the remaining trace to cover the window.  A window
    reaching past the end of the trace counts as unsatisfied.
    """
    steps = [(o, float(t)) for o, t in trace]
    if not steps:
        raise ValueError("trace must be non-empty")
    labels = [o for o, _ in steps]
    durs = [t for _, t in steps]
    length = len(steps)
    remaining = [0.0] * (length + 1)
    for i in range(length - 1, -1, -1):
        remaining[i] = durs[i] + remaining[i + 1]
    memo: dict[tuple[int, int], bool] = {}

    def ev(node: Formula, i: int) -> bool:
        key = (id(node), i)
        if key in memo:
            return memo[key]
        memo[key] = result = _ev(node, i)
        return result

    def _ev(node: Formula, i: int) -> bool:
        if isinstance(node, Atom):
            return labels[i] == node.name
        if isinstance(node, Not):
            return not ev(node.child, i)
        if isinstance(node, And):
            return ev(node.left, i) and ev(node.right, i)
        if isinstance(node, Or):
            return ev(node.left, i) or ev(node.right, i)
        if isinstance(node, (Until, Eventually)):
            if isinstance(node, Until):
                left, right, bound = node.left, node.right, node.bound
            else:
                left, right, bound = None, node.child, node.bound
            spent = 0.0
            for k in range(i, length):
                if spent > bound:
                    break
                if ev(right, k):
                    return True
                if left is not None and not ev(left, k):
                    break
                spent += durs[k]
            return False
        if isinstance(node, Always):
            atom_set = _atomic_disjunction(node.child)
            if atom_set is not None:
                return labels[i] in atom_set and durs[i] >= node.bound
            if remaining[i] < node.bound:
                return False
            spent = 0.0
            for k in range(i, length):
                if k > i and spent >= node.bound:
                    break
                if not ev(node.child, k):
                    return False
                spent += durs[k]
            return True
        raise TypeError(f"not a formula node: {node!r}")

    return ev(phi, 0)


# ---------------------------------------------------------------------------
# The one-step kernel of the measurement-history MDP

# Below the horizon every commanded action is enabled; at the horizon only a
# dummy self-loop action remains.

# Reserved action index for the horizon self-loop; never a policy choice.
DUMMY_ACTION = -1


def enabled_actions(state: HistoryKey, params: VehicleParams, horizon: int) -> list[int]:
    """Action indices available at a state; the dummy one at the horizon."""
    if len(state) > horizon:
        raise ValueError("history longer than the horizon")
    if len(state) == horizon:
        return [DUMMY_ACTION]
    return list(range(len(params.actions)))


def transition_prob(state: HistoryKey, action: int, nxt: HistoryKey,
                    nm: NoiseModel, horizon: int) -> float:
    """Probability of moving from state to nxt under the given action."""
    if len(state) == horizon:
        return 1.0 if action == DUMMY_ACTION and nxt == state else 0.0
    if action == DUMMY_ACTION:
        return 0.0
    if len(nxt) != len(state) + 1 or nxt[:len(state)] != state:
        return 0.0
    a, j_r, j_l = nxt[-1]
    if a != action:
        return 0.0
    if not (1 <= j_r <= nm.right.n and 1 <= j_l <= nm.left.n):
        return 0.0
    return nm.right.probs[j_r - 1] * nm.left.probs[j_l - 1]


def successors(state: HistoryKey, action: int, nm: NoiseModel, params: VehicleParams,
               horizon: int) -> list[tuple[HistoryKey, float]]:
    """All one-step extensions with their probabilities (they sum to 1)."""
    enabled = enabled_actions(state, params, horizon)
    if action not in enabled:
        raise ValueError(f"action {action} not enabled at a length-{len(state)} state")
    if action == DUMMY_ACTION:
        return [(state, 1.0)]
    out = []
    for j_r in range(1, nm.right.n + 1):
        for j_l in range(1, nm.left.n + 1):
            p = nm.right.probs[j_r - 1] * nm.left.probs[j_l - 1]
            out.append((state + ((action, j_r, j_l),), p))
    return out


def write_trace_csv(fp, trace: list[TraceStep]) -> None:
    """Rows (label, duration); empty label means no region."""
    writer = csv.writer(fp)
    writer.writerow(["label", "duration"])
    for label, dur in trace:
        writer.writerow([label if label is not None else "", repr(dur)])
