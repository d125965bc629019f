"""Command-line front end: synth, validate, check, and plot.

Artifacts are deterministic given (config, seed): the policy file and audit
log contain no timestamps, so reruns are byte-identical; wall-clock metadata
lives only in the run summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .bltl import (Atom, FragmentError, Not, ParseError, Until,
                   horizon_stages, parse_formula, sequential_witness, to_sequential)
from .config import RunConfig, environment_from_dict, load_config
from .dynamics import NoiseModel
from .env import Environment
from .mdp import STREAM_VALIDATE, EpisodeStream, HistoryKey
from .synthesis import (Policy, SynthesisResult, simulate_true_system, synthesize,
                        theorem_bound_holds, validate_true_system)
from .tracegen import read_trace_csv, read_trajectory_csv, write_trajectory_csv

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BOUND_FAILED = 4


# ---------------------------------------------------------------------------
# Artifact writers

def _history_key_strings(index: dict[HistoryKey, int]) -> list[str]:
    """The policy-file key of each history of a policy index, by row: its
    steps' ``a,jr,jl`` texts joined by ``;`` (the empty history's is "")."""
    texts = [""] * len(index)
    steps: dict[tuple[int, int, int], str] = {}
    for history, row in index.items():
        parts = []
        for step in history:
            text = steps.get(step)
            if text is None:
                text = steps[step] = "%d,%d,%d" % step
            parts.append(text)
        texts[row] = ";".join(parts)
    return texts


def _policy_document(result: SynthesisResult, cfg: RunConfig) -> dict:
    policy = result.policy
    actions = dict(zip(_history_key_strings(policy.index), policy.actions))
    return {
        "metadata": {
            "config_hash": cfg.content_hash(),
            "seed": cfg.seed,
            "n_actions": len(cfg.params.actions),
            "horizon": result.horizon,
            "rounds": len(result.rounds),
            "converged": result.converged,
            "p_hat": result.estimate.p_hat,
            "delta": cfg.algorithm.delta,
            "confidence": cfg.algorithm.confidence,
        },
        "policy": actions,
    }


def load_policy_file(path: Path, nm: Optional[NoiseModel] = None) -> tuple[dict, Policy]:
    """Metadata and deterministic policy of a policy file.

    The file must hold an object whose ``metadata`` and ``policy`` are
    objects.  The metadata's ``n_actions`` must be an integer of at least 1,
    its ``p_hat`` a finite number in [0, 1], neither a boolean, and its
    ``config_hash`` a string; a missing one is an error by name.  Every action
    must be an integer index into the file's action set.  Every history key
    must parse into steps whose actions are in that set and, given the noise
    model, whose tiles are in 1..n of its sides; and no two keys may parse to
    the same history.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("policy file must hold a JSON object")
    for key in ("metadata", "policy"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"policy file key {key} must be an object")
    meta = doc["metadata"]
    for key in ("n_actions", "p_hat", "config_hash"):
        if key not in meta:
            raise ValueError(f"policy metadata {key} is missing")
    n_actions = meta["n_actions"]
    if type(n_actions) is not int or n_actions < 1:
        raise ValueError(f"policy metadata n_actions must be an integer of at least 1, "
                         f"not {n_actions!r}")
    p_hat = meta["p_hat"]
    if type(p_hat) not in (int, float) or not 0 <= p_hat <= 1:  # NaN fails the range
        raise ValueError(f"policy metadata p_hat must be a number in [0, 1], not {p_hat!r}")
    if not isinstance(meta["config_hash"], str):
        raise ValueError(f"policy metadata config_hash must be a string, "
                         f"not {meta['config_hash']!r}")
    tiles = None if nm is None else (nm.right.n, nm.left.n)
    steps: dict[str, tuple[int, int, int]] = {}  # step text already checked -> step
    index: dict[HistoryKey, int] = {}
    actions: list[int] = []
    for key, action in doc["policy"].items():
        if type(action) is not int or not 0 <= action < n_actions:
            raise ValueError(f"policy action {action!r} at history {key!r} is not "
                             f"an action index in [0, {n_actions})")
        parts = key.split(";")
        try:
            history = tuple([steps[part] for part in parts])
        except KeyError:
            history = _checked_history(key, n_actions, tiles)
            steps.update(zip(parts, history))
        if history in index:
            raise ValueError(f"policy history {key!r} is a history an earlier key names")
        index[history] = len(actions)
        actions.append(action)
    return meta, Policy(n_actions, index, actions=actions)


def _checked_history(key: str, n_actions: int,
                     tiles: Optional[tuple[int, int]]) -> HistoryKey:
    """The history a policy key names, or a ValueError that names the key."""
    steps = key.split(";") if key else []  # the empty history's key is ""
    try:
        history = tuple((int(a), int(j_r), int(j_l))
                        for a, j_r, j_l in (step.split(",") for step in steps))
    except ValueError:  # a step without three fields, or a field not an integer
        raise ValueError(f"policy history {key!r} does not parse") from None
    for a, j_r, j_l in history:
        if not 0 <= a < n_actions:
            raise ValueError(f"policy history {key!r} has action {a} outside "
                             f"[0, {n_actions})")
        if tiles is not None and not (1 <= j_r <= tiles[0] and 1 <= j_l <= tiles[1]):
            raise ValueError(f"policy history {key!r} has tiles ({j_r}, {j_l}) outside "
                             f"1..{tiles[0]} x 1..{tiles[1]}")
    return history


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _policy_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of a policy
    document, with its flat history-key map written by the C encoder (an
    indent selects the pure-Python one, which is slow on a large map)."""
    head = json.dumps({"metadata": doc["metadata"]}, indent=2, sort_keys=True)
    body = json.dumps(doc["policy"], sort_keys=True, separators=(",\n    ", ": "))
    if doc["policy"]:
        body = "{\n    " + body[1:-1] + "\n  }"
    return head[:-2] + ',\n  "policy": ' + body + "\n}\n"


def _audit_lines(result: SynthesisResult) -> str:
    """One JSON line per round record, its ``round_index`` under the key
    ``round``."""
    lines = []
    for rec in result.rounds:
        doc = asdict(rec)
        doc["round"] = doc.pop("round_index")
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands

def _resolve_config_path(value: str) -> Path:
    """Accept a file path or the literal 'demo' for the bundled mission."""
    if value == "demo":
        from .config import builtin_config_path
        return builtin_config_path()
    return Path(value)


def cmd_synth(args) -> int:
    cfg = load_config(_resolve_config_path(args.config), seed_override=args.seed,
                      workers_override=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizon = horizon_stages(cfg.formula, cfg.params.dt)
    print(f"horizon: {horizon} stages of {cfg.params.dt} s")
    started = time.time()
    result = synthesize(cfg.env, cfg.formula, cfg.params, cfg.nm, cfg.algorithm,
                        master_seed=cfg.seed, workers=cfg.workers)
    for rec in result.rounds:
        change = "" if rec.change_from_previous is None else \
            f"  change {rec.change_from_previous:.4f}"
        print(f"round {rec.round_index}: p_hat {rec.p_hat:.4f} "
              f"(n {rec.n}, eval satisfied {rec.eval_satisfied}/{rec.eval_episodes})"
              + change)

    (out_dir / "audit.jsonl").write_text(_audit_lines(result))
    (out_dir / "policy.json").write_text(_policy_json(_policy_document(result, cfg)))
    _write_json(out_dir / "summary.json", {
        "config": cfg.resolved_dict(),
        "config_hash": cfg.content_hash(),
        "horizon": result.horizon,
        "rounds": len(result.rounds),
        "converged": result.converged,
        "p_hat": result.estimate.p_hat,
        "interval": [result.estimate.lo, result.estimate.hi],
        "wall_seconds": time.time() - started,
    })
    print(f"estimate: {result.estimate.p_hat:.4f} "
          f"in [{result.estimate.lo:.4f}, {result.estimate.hi:.4f}]")
    print(f"artifacts written to {out_dir}")
    if not result.converged:
        print(f"estimates did not settle within {cfg.algorithm.max_rounds} rounds",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.export_trajectories < 0:
        raise ValueError(f"--export-trajectories must be non-negative, "
                         f"not {args.export_trajectories}")
    cfg = load_config(_resolve_config_path(args.config), seed_override=args.seed,
                      workers_override=args.workers)
    meta, policy = load_policy_file(Path(args.policy), cfg.nm)
    if meta["config_hash"] != cfg.content_hash():
        if not args.override_hash:
            print("policy was synthesized under a different config "
                  "(rerun with --override-hash to proceed)", file=sys.stderr)
            return EXIT_ERROR
        print("warning: policy config hash does not match this config",
              file=sys.stderr)
    if policy.n_actions != len(cfg.params.actions):
        print("policy action count does not match the config", file=sys.stderr)
        return EXIT_ERROR

    estimate = validate_true_system(policy, cfg.env, cfg.formula, cfg.params, cfg.nm,
                                    cfg.algorithm, master_seed=cfg.seed,
                                    workers=cfg.workers)

    p_chain = float(meta["p_hat"])
    delta = cfg.algorithm.delta
    ok = theorem_bound_holds(p_chain, estimate.p_hat, delta)
    print(f"chain estimate:  {p_chain:.4f}")
    print(f"system estimate: {estimate.p_hat:.4f} "
          f"in [{estimate.lo:.4f}, {estimate.hi:.4f}] (n {estimate.n})")
    print(f"lower-bound check (system >= chain - 2*delta): {'PASS' if ok else 'FAIL'}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validation.json", {
        "config_hash": cfg.content_hash(),
        "chain_p_hat": p_chain,
        "system_p_hat": estimate.p_hat,
        "system_interval": [estimate.lo, estimate.hi],
        "system_samples": estimate.n,
        "delta": delta,
        "bound_holds": ok,
    })

    if args.export_trajectories > 0:
        spec = to_sequential(cfg.formula, cfg.env.unsafe)
        horizon = horizon_stages(cfg.formula, cfg.params.dt)
        episodes = EpisodeStream(cfg.seed, STREAM_VALIDATE, 0)
        for i in range(args.export_trajectories):
            traj, _, sat = simulate_true_system(
                policy, cfg.env, spec, cfg.params, cfg.nm, horizon, episodes.rng(i))
            suffix = "sat" if sat else "viol"
            with open(out_dir / f"traj_{i:04d}_{suffix}.csv", "w", newline="") as fp:
                write_trajectory_csv(fp, traj)
        print(f"wrote {args.export_trajectories} sample trajectories to {out_dir}")
    return EXIT_OK if ok else EXIT_BOUND_FAILED


def _infer_unsafe(formula) -> Optional[str]:
    if isinstance(formula, Until) and isinstance(formula.left, Not) \
            and isinstance(formula.left.child, Atom):
        return formula.left.child.name
    return None


def cmd_check(args) -> int:
    with open(args.trace) as fp:
        trace = read_trace_csv(fp)
    formula = parse_formula(args.formula)
    unsafe = args.unsafe or _infer_unsafe(formula)
    if unsafe is None:
        print("cannot infer the unsafe proposition; pass --unsafe", file=sys.stderr)
        return EXIT_ERROR
    spec = to_sequential(formula, unsafe)
    witness = sequential_witness(trace, spec)
    if witness is None:
        print("violated")
        return EXIT_VIOLATED
    print("satisfied")
    for phase, (i, k, n) in enumerate(witness, start=1):
        print(f"phase {phase}: start {i}, hit {i + k} (k={k}), disjunct {n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Plotting (static SVG)

_PALETTE = ["#4472c4", "#2ec4b6", "#e9c46a", "#57a773", "#9b5de5", "#f4845f"]


def _region_colors(env: Environment) -> dict[str, str]:
    colors = {env.unsafe: "#d62828"}
    goal_props = sorted(p for p in env.propositions if p != env.unsafe)
    for i, prop in enumerate(goal_props):
        colors[prop] = _PALETTE[i % len(_PALETTE)]
    return colors


def render_svg(env: Environment,
               trajectories: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Environment plus polylines; each trajectory is (style, points).

    Style 'sat' draws black, 'viol' red, anything else gray.  Points outside
    the workspace must be clipped by the caller.
    """
    from html import escape  # only plot needs it, and it loads an entity table
    width = 800.0  # pixels; the height follows the workspace
    b = env.bounds
    scale = width / (b.x1 - b.x0)
    height = (b.y1 - b.y0) * scale

    def sx(x: float) -> float:
        return (x - b.x0) * scale

    def sy(y: float) -> float:
        return (b.y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" '
        f'fill="#ffffff" stroke="#222222"/>',
    ]
    colors = _region_colors(env)
    for reg in env.regions:
        r = reg.rect
        parts.append(
            f'<rect x="{sx(r.x0):.2f}" y="{sy(r.y1):.2f}" '
            f'width="{(r.x1 - r.x0) * scale:.2f}" height="{(r.y1 - r.y0) * scale:.2f}" '
            f'fill="{colors[reg.label]}" fill-opacity="0.55" stroke="#333333"/>')
        parts.append(
            f'<text x="{sx(r.x0) + 4:.2f}" y="{sy(r.y1) + 14:.2f}" '
            f'font-size="12" fill="#111111">{escape(reg.label)}</text>')
    style_color = {"sat": "#111111", "viol": "#d62828"}
    for style, points in trajectories:
        if len(points) < 2:
            continue
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        color = style_color.get(style, "#888888")
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
    p = env.initial_pose
    parts.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="4" fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    env_doc = json.loads(Path(args.env).read_text())
    env = environment_from_dict(env_doc)
    trajectories = []
    for path in sorted(args.trajectories):
        path = Path(path)
        with open(path) as fp:
            rows = read_trajectory_csv(fp)
        stem = path.stem
        style = "sat" if stem.endswith("_sat") else \
            "viol" if stem.endswith("_viol") else "other"
        points = []
        clipped = False
        b = env.bounds
        for _, x, y, _, _ in rows:
            cx = min(max(x, b.x0), b.x1)
            cy = min(max(y, b.y0), b.y1)
            clipped = clipped or cx != x or cy != y
            points.append((cx, cy))
        if clipped:
            print(f"warning: {path} leaves the workspace; clipped", file=sys.stderr)
        trajectories.append((style, points))
    svg = render_svg(env, trajectories)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out} ({len(trajectories)} trajectories)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bltlsynth",
        description="Synthesize and validate control strategies for a noisy "
                    "differential-drive vehicle against bounded-LTL missions.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a control strategy")
    synth.add_argument("--config", required=True)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--workers", type=int, default=None)
    synth.add_argument("--out-dir", default="out")
    synth.set_defaults(fn=cmd_synth)

    val = sub.add_parser("validate", help="simulate the closed loop and check the bound")
    val.add_argument("--policy", required=True)
    val.add_argument("--config", required=True)
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--workers", type=int, default=None)
    val.add_argument("--out-dir", default="out")
    val.add_argument("--override-hash", action="store_true")
    val.add_argument("--export-trajectories", type=int, default=0)
    val.set_defaults(fn=cmd_validate)

    check = sub.add_parser("check", help="check a trace CSV against a formula")
    check.add_argument("--trace", required=True)
    check.add_argument("--formula", required=True)
    check.add_argument("--unsafe", default=None)
    check.set_defaults(fn=cmd_check)

    plot = sub.add_parser("plot", help="render environment and trajectories to SVG")
    plot.add_argument("--env", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("trajectories", nargs="*")
    plot.set_defaults(fn=cmd_plot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ParseError, FragmentError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
