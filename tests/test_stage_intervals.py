"""The event-time kernel ``tracegen.stage_intervals`` against the solver that
solves every edge of every near rectangle (``oracles.stage_intervals_reference``),
compared with ``==``: on the stages chain episodes and closed-loop validation
episodes build, and on random stages placed at the kernel's edge cases."""

import gzip
import math
import random
from pathlib import Path

import pytest

import bltlsynth.tracegen as tracegen
from bltlsynth.bltl import horizon_stages, to_sequential
from bltlsynth.cli import load_policy_file
from bltlsynth.dynamics import OMEGA_STRAIGHT_EPS, Pose
from bltlsynth.env import Rect
from bltlsynth.mdp import PathSampler
from bltlsynth.synthesis import QTable, _TrueSystemTask, evaluate_policy, uniform_policy
from bltlsynth.tracegen import _BOX_PAD, _TANGENT_SLACK, BREAKPOINT_TOL, stage_intervals

from oracles import _Path, pose_stage, stage_intervals_reference

PINNED_POLICY = Path(__file__).resolve().parents[1] / "bench" / "reference" / "policy.json.gz"


def checked_kernel(calls):
    """stage_intervals that asserts equality with the reference on each call
    and counts the calls in ``calls``."""
    def kernel(rules, stage, d, t0):
        got = stage_intervals(rules, stage, d, t0)
        assert got == stage_intervals_reference(rules, stage, d, t0), (rules, stage, d, t0)
        calls.append(d)
        return got
    return kernel


def test_chain_stages_match_the_reference(demo_config, monkeypatch):
    """Every stage that PathSampler.decide builds in the first round of the
    seed-2026 reduced demo synthesis (1000 episodes)."""
    calls = []
    monkeypatch.setattr(tracegen, "stage_intervals", checked_kernel(calls))
    cfg = demo_config
    sampler = PathSampler(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                          cfg.nm, horizon_stages(cfg.formula, cfg.params.dt))
    evaluate_policy(uniform_policy(len(cfg.params.actions)), 1000, QTable(), sampler,
                    history_weight=cfg.algorithm.history_weight, master_seed=2026,
                    round_index=1)
    assert len(calls) > 2000 and all(d > 0.0 for d in calls)


@pytest.mark.skipif(not PINNED_POLICY.exists(), reason="pinned benchmark policy not present")
def test_closed_loop_stages_match_the_reference(demo_config, monkeypatch, tmp_path):
    """Every stage of 500 seed-2026 validation episodes under the pinned
    benchmark policy."""
    calls = []
    monkeypatch.setattr(tracegen, "stage_intervals", checked_kernel(calls))
    cfg = demo_config
    policy_path = tmp_path / "policy.json"
    policy_path.write_bytes(gzip.decompress(PINNED_POLICY.read_bytes()))
    _, policy = load_policy_file(policy_path, cfg.nm)
    task = _TrueSystemTask(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                           cfg.nm, policy, horizon_stages(cfg.formula, cfg.params.dt), 2026)
    for index in range(500):
        task.decide(index)
    assert len(calls) > 1000 and all(d == 0.0 for d in calls)


def test_edge_within_the_tangent_tolerance_of_a_near_straight_arc():
    """A near-straight arc (R = -1.46e11 m) that passes heading 3*pi/2
    mid-stage, where its x is largest.  The solver takes the contact edge
    0.144 m beyond that x as tangent (within |R|*_TANGENT_SLACK = 0.146 m),
    though it lies 0.11 m outside the stage's box, and that root, not the
    corner circle's, starts the contact interval: the kernel must solve
    the edge too."""
    start = Pose(-1.4320790707565745, 0.3001757166539063, 4.712388980384547)
    v, omega, duration = -0.21871803692956507, 1.5e-12, 0.3
    stage = pose_stage(start, 0.0, 0.0, duration, v, omega)
    d = 0.06877430436225238
    rect = Rect(-1.3961348165219247, 0.3825482658441597, -1.356424919885829, 0.4694226976833564)
    (_, _, bx1, _), _ = box_of(stage)
    assert rect.x1 + d > bx1 + 0.1
    rules = [("u", [rect], True)]
    want = stage_intervals_reference(rules, stage, d, 0.0)
    tangent = _Path(stage, 0.0).line_times(0, rect.x1 + d)[0]
    assert want == (((tangent, duration),),)
    assert stage_intervals(rules, stage, d, 0.0) == want


# ---------------------------------------------------------------------------
# Random stages

def box_of(stage):
    """The kernel's padded box of the stage and its arc centre and radius
    (None for a line)."""
    x0, y0, theta0, x1, y1 = stage.x0, stage.y0, stage.theta0, stage.x1, stage.y1
    arc = None
    if abs(stage.omega) >= OMEGA_STRAIGHT_EPS:
        radius = stage.v / stage.omega
        arc = (x0 - radius * math.sin(theta0), y0 + radius * math.cos(theta0), radius)
    if arc is None or abs(stage.omega) * stage.duration <= math.pi:
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        rho = math.hypot(x1 - x0, y1 - y0) / 2.0
    else:
        mx, my, rho = arc[0], arc[1], abs(arc[2])
    rho += _BOX_PAD
    return (mx - rho, my - rho, mx + rho, my + rho), arc


def random_stage(rnd):
    """A line (some with vx == 0 or vy == 0), a stationary stage, a spin in
    place, a near-straight arc, a gentle arc or an arc sweeping pi or past it;
    half the arcs sweep through an axis-parallel heading, where an edge near
    the arc's extreme meets the solver's tangent tolerance."""
    kind = rnd.randrange(7)
    duration = rnd.choice([0.3, rnd.uniform(0.01, 3.0)])
    v = rnd.choice([-1.0, 1.0]) * rnd.uniform(0.01, 0.6)
    sign = rnd.choice([-1.0, 1.0])
    if kind == 0:    # a line
        omega = 0.0
    elif kind == 1:  # a stationary stage, or one so slow that vx or vy underflows
        omega, v = 0.0, rnd.choice([0.0, 1e-310])
    elif kind == 2:  # a spin in place
        v, omega = 0.0, sign * rnd.uniform(0.1, 6.0)
    elif kind == 3:  # a near-straight arc, |omega| just above OMEGA_STRAIGHT_EPS
        omega = sign * OMEGA_STRAIGHT_EPS * rnd.choice([1.0 + 1e-9, 1.5, 10.0, 1e3])
    elif kind == 4:  # a sweep of exactly pi or past it
        omega = sign * rnd.choice([math.pi, rnd.uniform(math.pi, 5 * math.pi)]) / duration
    else:
        omega = sign * rnd.uniform(0.05, 3.0)
    axis_heading = 0.5 * math.pi * rnd.randrange(4)
    if omega != 0.0 and rnd.random() < 0.5:
        theta = axis_heading - omega * duration * rnd.random()
    else:
        theta = rnd.choice([axis_heading, rnd.uniform(0, 2 * math.pi)])
    start = Pose(rnd.uniform(-3, 3), rnd.uniform(-3, 3), theta)
    return pose_stage(start, 0.0, 0.0, duration, v, omega)


def random_edge_values(rnd, stage):
    """Coordinates at the stage's edge cases, per axis: its padded box, the
    arc's extremes, its start and end, each nudged by a multiple of _BOX_PAD,
    of |R|*_TANGENT_SLACK or by one ulp."""
    (bx0, by0, bx1, by1), arc = box_of(stage)
    xs = [bx0, bx1, stage.x0, stage.x1]
    ys = [by0, by1, stage.y0, stage.y1]
    scale = _BOX_PAD
    if arc is not None:
        cx, cy, radius = arc
        xs += [cx - abs(radius), cx + abs(radius)]
        ys += [cy - abs(radius), cy + abs(radius)]
        scale = max(scale, abs(radius) * _TANGENT_SLACK)
    nudges = [0.0, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 3.0, -0.5, -0.9, -1.0, -2.0]

    def nudge(c):
        kind = rnd.randrange(3)
        if kind == 0:
            return c + rnd.choice(nudges) * rnd.choice([_BOX_PAD, scale])
        if kind == 1:
            return math.nextafter(c, rnd.choice([-math.inf, math.inf]))
        return c + rnd.gauss(0.0, 0.05)
    return [nudge(c) for c in xs], [nudge(c) for c in ys]


def span(rnd, c, off, length):
    """An interval with its lower edge offset by -off, or its upper edge
    offset by +off, at c."""
    if rnd.random() < 0.5:
        return c + off, c + off + length
    return c - off - length, c - off


def random_rect(rnd, stage, d, xs, ys):
    """A rectangle with an (offset) edge at an edge case and one through a
    path point, often just after a root of the first, where the reference
    drops roots closer than BREAKPOINT_TOL; or one placed along the path; or
    one whose corner lies within about d of it."""
    kind = rnd.randrange(4)
    w, h = (rnd.choice([rnd.uniform(0.001, 2 * d + 1e-3), rnd.uniform(0.01, 1.0)])
            for _ in range(2))
    off = rnd.choice([d, -d])  # where a contact or a containment rule's edge lies
    if kind < 2:
        c = rnd.choice(ys if kind else xs)
        roots = _Path(stage, 0.0).line_times(kind, c)
        if roots and rnd.random() < 0.5:
            # a root within 2 BREAKPOINT_TOL of the stage start can put t
            # before it, where the stage has no position
            t = max(rnd.choice(roots) + rnd.uniform(-2.0, 2.0) * BREAKPOINT_TOL, 0.0)
        else:
            t = rnd.uniform(0, stage.duration)
        a0, a1 = span(rnd, c, off, h if kind else w)
        b0, b1 = span(rnd, stage.position_at(t)[1 - kind], off, w if kind else h)
        return Rect(b0, a0, b1, a1) if kind else Rect(a0, b0, a1, b1)
    px, py = stage.position_at(rnd.uniform(0, stage.duration))
    if kind == 2:
        cx, cy = px + rnd.gauss(0, 0.2), py + rnd.gauss(0, 0.2)
        return Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    # a corner at distance about d from a point of the path
    a = rnd.uniform(0, 2 * math.pi)
    r = d * rnd.choice([1.0, 1.0 + 1e-12, 1.0 - 1e-12, rnd.uniform(0.5, 1.5)])
    qx, qy = px + r * math.cos(a), py + r * math.sin(a)
    x0, x1 = sorted((qx, qx + math.copysign(w, math.cos(a))))
    y0, y1 = sorted((qy, qy + math.copysign(h, math.sin(a))))
    return Rect(x0, y0, x1, y1)


def random_case(rnd):
    """(rules, stage, d, t0) at the kernel's edge cases."""
    stage = random_stage(rnd)
    d = rnd.choice([0.0, 0.0, rnd.uniform(0.0, 0.3), 1e-6])
    xs, ys = random_edge_values(rnd, stage)
    rects = [random_rect(rnd, stage, d, xs, ys) for _ in range(rnd.randrange(1, 6))]
    rules = []
    if rnd.random() < 0.7:
        rules.append(("u", rects[:rnd.randrange(1, len(rects) + 1)], True))
    rules += [(f"g{i}", (r,), rnd.random() < 0.3) for i, r in enumerate(rects)]
    t0 = rnd.choice([0.0, 0.3 * rnd.randrange(10), rnd.uniform(0, 10)])
    return rules, stage, d, t0


def mismatches(seed, n):
    rnd = random.Random(seed)
    bad = []
    for _ in range(n):
        case = random_case(rnd)
        if stage_intervals(*case) != stage_intervals_reference(*case):
            bad.append(case)
    return bad


def test_random_stages_match_the_reference():
    assert mismatches(2026, 4000) == []


def test_random_cases_reach_the_edge_cases():
    """The generator makes every kind of stage, and cases with intervals."""
    rnd = random.Random(5)
    kinds = set()
    found = 0
    for _ in range(2000):
        rules, stage, d, t0 = random_case(rnd)
        straight = abs(stage.omega) < OMEGA_STRAIGHT_EPS
        kinds.add(("line" if stage.v else "still") if straight else
                  "spin" if stage.v == 0.0 else
                  "near-straight" if abs(stage.omega) < 1e-6 else
                  "past-pi" if abs(stage.omega) * stage.duration > math.pi else "arc")
        found += any(stage_intervals(rules, stage, d, t0))
    assert kinds == {"line", "still", "spin", "near-straight", "past-pi", "arc"}
    assert found > 500


@pytest.mark.slow
def test_many_random_stages_match_the_reference():
    """The same comparison on 200,000 random stages."""
    assert mismatches(99, 200_000) == []
