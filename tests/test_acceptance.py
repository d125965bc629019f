"""Acceptance suite: one test per release criterion, run in order.

Each test prints a `criterion NN <name>: PASS` line (visible with -s; the
per-test pass/fail status in `pytest -v` mirrors it).  The heavy statistical
criteria pin their seeds, so the whole suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

import bltlsynth as bs
from bltlsynth.cli import _audit_lines, _policy_document
from bltlsynth.config import builtin_config_path, config_from_dict
from bltlsynth.dynamics import Pose, angle_diff, integrate_body, measure, wheel_to_body, wrap_angle
from bltlsynth.mdp import PathSampler
from bltlsynth.synthesis import (bie_estimate, synthesize, theorem_bound_holds,
                                 uniform_policy, validate_true_system)
from bltlsynth.tracegen import TraceWalk, decide_tube, point_rules
from bltlsynth.uncertainty import build_tube

from conftest import (COURIER_FORMULA, COURIER_TRACE, COURIER_TRACE_INNER,
                      COURIER_TRACE_TUBE, MISSION_FORMULA, load_demo_config_doc)
from oracles import (all_success_stop_count, chained_positions, check_generic, end_pose,
                     episode_rng, make_stage, random_spec, random_trace, rk4_pose,
                     sample_history_scalar, segment_positions_batch, spec_to_formula,
                     successors, wheel_noise)

ACCEPTANCE_SEED = 2026
REDUCED_EPISODES = 1000
REDUCED_MAX_ROUNDS = 10


def report(num: int, name: str, started: float) -> None:
    print(f"criterion {num:02d} {name}: PASS ({time.monotonic() - started:.2f}s)")


@pytest.fixture(scope="module")
def demo_cfg():
    doc = load_demo_config_doc()
    doc["algorithm"]["episodes_per_round"] = REDUCED_EPISODES
    doc["algorithm"]["max_rounds"] = REDUCED_MAX_ROUNDS
    doc["seed"] = ACCEPTANCE_SEED
    return config_from_dict(doc, base_dir=builtin_config_path().parent)


def run_reduced_synthesis(cfg):
    return synthesize(cfg.env, cfg.formula, cfg.params, cfg.nm, cfg.algorithm,
                      master_seed=cfg.seed, workers=cfg.workers)


@pytest.fixture(scope="module")
def synthesis_run(demo_cfg):
    return run_reduced_synthesis(demo_cfg)


def test_criterion_01_horizon(demo_cfg):
    t0 = time.monotonic()
    phi = bs.parse_formula(MISSION_FORMULA)
    assert bs.horizon_stages(phi, 2.6) == 9
    assert bs.horizon_stages(demo_cfg.formula, demo_cfg.params.dt) == 9
    report(1, "horizon", t0)


def test_criterion_02_worked_example_verdicts():
    t0 = time.monotonic()
    spec = bs.to_sequential(bs.parse_formula(COURIER_FORMULA), "u")
    assert bs.sequential_witness(COURIER_TRACE, spec) == [(1, 1, 1), (2, 2, 1), (4, 2, 1)]
    assert bs.check_sequential(COURIER_TRACE_TUBE, spec)
    assert bs.check_sequential(COURIER_TRACE_INNER, spec)
    report(2, "worked-example verdicts", t0)


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    disagreements = 0
    for _ in range(10_000):
        spec = random_spec(rng, ["a", "b", "c"])
        trace = random_trace(rng, ["a", "b", "c", "u"])
        phi = spec_to_formula(spec)
        if bs.check_sequential(trace, spec) != check_generic(trace, phi):
            disagreements += 1
    assert disagreements == 0
    report(3, "checker/oracle equivalence on 10^4 instances", t0)


def drawn_tile_mass(nm, wheel, j):
    """The probability that ``WheelNoise.tile`` draws tile j from a
    uniform u in [0, 1): the length of the u it maps to j, between running
    sums of ``WheelNoise.cdf`` (the last tile takes every u past the others)."""
    wn = wheel_noise(nm, wheel)
    lo = wn.cdf[j - 2] if j > 1 else 0.0
    hi = wn.cdf[j - 1] if j < wn.n else 1.0
    if hi > lo:
        assert wn.tile(lo) == j
    return hi - lo


def test_criterion_04_transition_probabilities(demo_cfg):
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    params, nm = demo_cfg.params, demo_cfg.nm
    for _ in range(1000):
        depth = int(rng.integers(0, 9))
        state = tuple((int(rng.integers(3)), int(rng.integers(1, 4)),
                       int(rng.integers(1, 4))) for _ in range(depth))
        action = int(rng.integers(3))
        succ = successors(state, action, nm, params, 9)
        total = sum(p for _, p in succ)
        assert abs(total - 1.0) <= 1e-12
        for nxt, p in succ:
            _, j_r, j_l = nxt[-1]
            drawn = drawn_tile_mass(nm, "r", j_r) * drawn_tile_mass(nm, "l", j_l)
            assert abs(p - drawn) <= 1e-12
    report(4, "successor probabilities sum to one and match the drawn tiles", t0)


def test_criterion_05_integrator_fidelity(demo_cfg):
    t0 = time.monotonic()
    params, nm = demo_cfg.params, demo_cfg.nm
    mids_r = [nm.right.midpoint(j) for j in (1, 2, 3)]
    mids_l = [nm.left.midpoint(j) for j in (1, 2, 3)]
    q0 = Pose(0.0, 0.0, 0.0)
    for action in params.actions:
        for er in mids_r:
            for el in mids_l:
                w_r, w_l = action[0] + er, action[1] + el
                qx, qy, qth = integrate_body(q0.x, q0.y, q0.theta,
                                             *wheel_to_body(params, w_r, w_l), params.dt)
                x, y, th = rk4_pose(params, q0, w_r, w_l, params.dt, step=1e-4)
                assert abs(qx - x) <= 1e-9
                assert abs(qy - y) <= 1e-9
                assert angle_diff(qth, wrap_angle(th)) <= 1e-9
    report(5, "closed-form integrator vs RK4", t0)


def test_criterion_06_tube_containment(demo_cfg):
    t0 = time.monotonic()
    params, nm = demo_cfg.params, demo_cfg.nm
    q_init = demo_cfg.env.initial_pose
    rng = np.random.default_rng(606)
    local_ts = np.linspace(0.0, params.dt, 64, endpoint=False) + params.dt / 64
    violations = 0
    for _ in range(10_000):
        history = [(a, measure(nm, params, a, int(rng.integers(1, 4)),
                               int(rng.integers(1, 4))))
                   for a in rng.integers(0, 3, size=9)]
        tube = build_tube(history, q_init, params, nm)
        stages = tube.trajectory.stages
        nx, ny = segment_positions_batch(
            params, *(np.array([getattr(st, c) for st in stages])
                      for c in ("x0", "y0", "theta0")),
            np.array([st.w_r for st in stages]), np.array([st.w_l for st in stages]),
            local_ts)
        # five inner samples' wheel speeds, drawn as one rng.uniform call per
        # sample, stage and wheel would draw them
        lo = np.array([[m.r_lo, m.l_lo] for _, m in history])
        hi = np.array([[m.r_hi, m.l_hi] for _, m in history])
        w = rng.uniform(np.broadcast_to(lo, (5, 9, 2)), np.broadcast_to(hi, (5, 9, 2)))
        xs, ys = chained_positions(params, q_init, w[..., 0], w[..., 1], local_ts)
        outside = np.hypot(xs - nx, ys - ny) > np.array(tube.radii)[:, None] + 1e-9
        violations += int(outside.any(axis=2).sum())
    assert violations == 0
    report(6, "inner trajectories stay inside the tube", t0)


def inner_stages(params, pose, wheel_speeds):
    """The stages of the (w_r, w_l) pairs from the pose, built as they are
    asked for."""
    for w_r, w_l in wheel_speeds:
        st = make_stage(params, pose, w_r, w_l, params.dt)
        yield st
        pose = end_pose(st)


def test_criterion_07_conservatism(demo_cfg):
    t0 = time.monotonic()
    params, nm, env = demo_cfg.params, demo_cfg.nm, demo_cfg.env
    spec = bs.to_sequential(demo_cfg.formula, env.unsafe)
    sampler = PathSampler(env, spec, params, nm, 9)
    policy = uniform_policy(len(params.actions))
    rules = point_rules(env)
    rng = np.random.default_rng(707)
    satisfying = 0
    episode = 0
    violations = 0
    while satisfying < 1000:
        _, verdict = sampler.sample_history(policy, episode_rng(ACCEPTANCE_SEED, 7, 0, episode))
        episode += 1
        if not verdict:
            continue
        # the episode's whole history, not cut at the stage that fixes its verdict
        history = sample_history_scalar(policy, nm, 9,
                                        episode_rng(ACCEPTANCE_SEED, 7, 0, episode - 1))
        satisfying += 1
        measured = sampler.measured_history(history)
        lo = np.array([[m.r_lo, m.l_lo] for _, m in measured])
        hi = np.array([[m.r_hi, m.l_hi] for _, m in measured])
        for _ in range(10):
            # every wheel speed of the inner trajectory, drawn as one
            # rng.uniform call per stage and wheel would draw them; its stages
            # are built, traced and checked only until the verdict is fixed
            w = rng.uniform(lo, hi).tolist()
            stages = inner_stages(params, env.initial_pose, w)
            verdict, _ = decide_tube(TraceWalk(rules, env.unsafe, bs.SequentialMonitor(spec)),
                                     ((st, 0.0) for st in stages))
            violations += not verdict
    assert violations == 0
    report(7, f"tube verdicts certify inner trajectories "
              f"({episode} paths sampled)", t0)


def test_criterion_08_estimation_calibration():
    t0 = time.monotonic()
    # degenerate all-success source: stop count pinned by the closed-form
    # posterior oracle (computed before the implementation)
    expected_n = all_success_stop_count(1.0, 1.0, 0.05, 0.95)
    assert expected_n == 38
    result = bie_estimate(lambda s, c: [True] * c, 0.05, 0.95, 1.0, 1.0, batch_size=1)
    assert result.n == expected_n

    hits = 0
    runs = 200
    for i in range(runs):
        rng = np.random.default_rng(80_000 + i)

        def draw(start, count):
            return [bool(rng.random() < 0.7) for _ in range(count)]

        r = bie_estimate(draw, 0.05, 0.95, 1.0, 1.0, batch_size=1)
        hits += r.lo <= 0.7 <= r.hi
    assert hits / runs >= 0.92
    report(8, f"estimation calibration ({hits}/{runs} cover)", t0)


def test_criterion_09_probability_lower_bound(demo_cfg, synthesis_run):
    t0 = time.monotonic()
    result = synthesis_run
    assert 0.0 < result.estimate.p_hat < 1.0
    validation = validate_true_system(
        result.policy, demo_cfg.env, demo_cfg.formula, demo_cfg.params, demo_cfg.nm,
        demo_cfg.algorithm, master_seed=demo_cfg.seed, workers=demo_cfg.workers)
    delta = demo_cfg.algorithm.delta
    assert theorem_bound_holds(result.estimate.p_hat, validation.p_hat, delta)
    # conservative tube abstraction: the closed-loop system does better
    assert validation.p_hat > result.estimate.p_hat
    report(9, f"closed-loop bound (chain {result.estimate.p_hat:.3f}, "
              f"system {validation.p_hat:.3f})", t0)


def test_criterion_10_determinism(demo_cfg, synthesis_run):
    t0 = time.monotonic()
    again = run_reduced_synthesis(demo_cfg)
    assert again.estimate.p_hat == synthesis_run.estimate.p_hat
    first_policy = json.dumps(_policy_document(synthesis_run, demo_cfg), sort_keys=True)
    second_policy = json.dumps(_policy_document(again, demo_cfg), sort_keys=True)
    assert first_policy == second_policy
    assert _audit_lines(again) == _audit_lines(synthesis_run)
    report(10, "same seed reproduces estimates, policy, and audit", t0)
