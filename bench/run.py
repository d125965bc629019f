"""Benchmark for bltlsynth: synthesis, closed-loop validation, parallel synthesis.

    python3 bench/run.py --workload demo-synth --seed 2026 --seconds 35 --trace 0
    python3 bench/run.py                      # every workload, default seed

With ``--trace 0`` the run repeats the workload's command for about
``--seconds`` and reports the end-to-end metrics: episodes per second over all
repetitions, peak memory, and the median set-up time of fresh interpreters.
With ``--trace 1`` it runs the command once untraced and once with spans
recorded at every module boundary, runs the pool probe, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  Results and spans are written under ``.bench_out/``.
See bench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LayerStats, Recorder, spans_to_jsonl  # noqa: E402
from workloads import (BENCH_DIR, DEFAULT_SEED, NPROC, WORKLOADS, Outcome,  # noqa: E402
                       Runner, compare_reference, make_config,
                       unpack_reference_policy)

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 8
POOL_PROBE_REPEATS = 3
POOL_WORKERS = min(2, NPROC)
MAX_REPEATS = 1000
ROTATE_S = 0.5


# ---------------------------------------------------------------------------
# Core rotation for serial commands

def allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


@contextlib.contextmanager
def rotate_cores(period: float = ROTATE_S):
    """Move the calling thread to the next allowed core every ``period`` s.

    On a shared host each core's speed drifts on its own, by a fifth and
    more over tens of seconds.  A serial command left on one core measures
    that core; rotated, it measures the mean of all of them.  Only for
    single-process commands: a pool forked while the thread is pinned would
    inherit the single core.
    """
    allowed = allowed_cpus()
    if len(allowed) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        for cpu in itertools.cycle(allowed):
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:
                return
            if stop.wait(period):
                return

    thread = threading.Thread(target=rotate, name="rotate-cores", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
        with contextlib.suppress(OSError):
            os.sched_setaffinity(tid, allowed)


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh interpreters

def setup_probe(workload_name: str, seed: int, work_dir: Path, cpu: int | None) -> int:
    """Child side: time imports, config generation and policy load."""
    if cpu is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    from bltlsynth import cli
    workload = WORKLOADS[workload_name]
    work_dir.mkdir(parents=True, exist_ok=True)
    make_config(workload, seed, work_dir / "config.json")
    if workload.command == "validate":
        cli.load_policy_file(unpack_reference_policy(work_dir / "policy.json"))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(workload_name: str, seed: int, run_dir: Path, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, pinned to each core in turn.

    Each core's speed drifts on its own (see rotate_cores), so probes that all
    landed on one core would measure that core.
    """
    cpus = allowed_cpus()
    times = []
    for i in range(count):
        pin = ["--probe-cpu", str(cpus[i % len(cpus)])] if len(cpus) > 1 else []
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed),
             "--probe-dir", str(run_dir / "setup"), *pin],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Provenance

def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "seed": seed,
        "parallel_synth_workers": WORKLOADS["parallel-synth"].workers,
        "note": "parallel-synth uses min(2, nproc) workers, never more than nproc",
    }


# ---------------------------------------------------------------------------
# Pool probe (traced run only)

def pool_probe(runner: Runner, seed: int) -> tuple[float, float]:
    """Cost of one pooled evaluate_policy call on 2 episodes, and policy size.

    Returns (pooled minus serial milliseconds, pickled policy KiB) for the
    pinned reference policy.
    """
    from bltlsynth import bltl, mdp, synthesis
    from bltlsynth.cli import load_policy_file
    from bltlsynth.config import load_config
    cfg = load_config(runner.config)
    _, policy = load_policy_file(runner.policy)
    spec = bltl.to_sequential(cfg.formula, cfg.env.unsafe)
    horizon = bltl.horizon_stages(cfg.formula, cfg.params.dt)
    sampler = mdp.PathSampler(cfg.env, spec, cfg.params, cfg.nm, horizon)

    def timed(workers: int) -> float:
        start = time.perf_counter()
        synthesis.evaluate_policy(policy, 2, synthesis.QTable(), sampler,
                                  history_weight=cfg.algorithm.history_weight,
                                  master_seed=seed, round_index=1, workers=workers)
        return time.perf_counter() - start

    extra = [timed(POOL_WORKERS) - timed(1) for _ in range(POOL_PROBE_REPEATS)]
    return statistics.median(extra) * 1e3, len(pickle.dumps(policy)) / 1024


# ---------------------------------------------------------------------------
# Metrics

def end_to_end_metrics(setup: list[float], outcomes: list[Outcome]) -> dict:
    """Median set-up time; episodes per second over every command of the run.

    The throughput is a ratio of sums, not a median of per-command rates:
    commands on different seeds do different amounts of work.
    """
    ok = [o for o in outcomes if o.error is None] or outcomes
    return {
        "setup_s": (statistics.median(setup), "s"),
        "episodes_per_s": (sum(o.episodes for o in ok) / sum(o.wall_s for o in ok), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(stats: LayerStats, untraced: Outcome, traced: Outcome,
                  probe: tuple[float, float]) -> dict:
    m: dict[str, tuple[float, str]] = {}
    kinds = {"us_p50": (lambda name: stats.us(name, 50), "us"),
             "us_p99": (lambda name: stats.us(name, 99), "us"),
             "self_s": (stats.self_s, "s"), "s": (stats.total_s, "s"),
             "calls": (stats.calls, "count")}

    def timing(name: str, *wanted: str) -> None:
        for kind in wanted:
            value, unit = kinds[kind]
            m[f"{name}.{kind}"] = (value(name), unit)

    timing("tracegen.trace_from_tube", "us_p50", "us_p99", "self_s", "calls")
    m["tracegen.trace_states.mean"] = (stats.mean_value("tracegen.trace_from_tube"), "count")
    timing("tracegen.trace_from_trajectory", "us_p50", "us_p99", "self_s", "calls")
    timing("uncertainty.build_tube", "us_p50", "us_p99", "self_s", "calls")
    timing("mdp.sample_history", "us_p50", "us_p99", "self_s", "calls")
    timing("dynamics.measure", "us_p50", "self_s", "calls")
    timing("bltl.check_sequential", "us_p50", "self_s", "calls")
    m["bltl.check_sequential.sat_ratio"] = (stats.mean_value("bltl.check_sequential"), "ratio")
    timing("synthesis.evaluate_policy", "self_s")
    timing("synthesis.improve_policy", "s")
    timing("synthesis.determinize", "s")
    timing("synthesis.bie_estimate", "self_s")
    timing("synthesis.simulate_true_system", "self_s")
    timing("synthesis.map_episodes", "self_s")
    s = traced.summary
    m["synthesis.rounds"] = (s.get("rounds", 0), "count")
    m["synthesis.bie_samples"] = (s.get("bie_samples", 0), "count")
    m["synthesis.policy_states"] = (s.get("policy_states", 0), "count")
    m["synthesis.q_pairs"] = (s.get("q_pairs", 0), "count")
    m["synthesis.pool_calls"] = (s.get("pool_calls", 0), "count")
    m["synthesis.pool_call_ms"] = (probe[0], "ms")
    m["synthesis.policy_pickle_kb"] = (probe[1], "KiB")
    m["cli.self_s"] = (stats.self_s("cli.main"), "s")
    timing("config.load_config", "s")
    m["trace_overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    m["trace_coverage_ratio"] = (stats.main_self_ns / 1e9 / traced.wall_s, "ratio")
    return m


# ---------------------------------------------------------------------------
# One workload

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; see the module docstring for the two modes."""
    workload = WORKLOADS[name]
    run_dir = OUT_ROOT / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runner = Runner(workload, run_dir)
        extra: dict = {}
        if not trace:
            # Half the set-up probes run before the commands and half after, so
            # one stretch of interference on a shared machine cannot move them all.
            setup = measure_setup(name, seed, run_dir, SETUP_REPEATS // 2)
            # Repetition k runs on seed + k, so one run averages over inputs too.
            # Another command starts while it would end nearer to the deadline
            # than stopping now, so the measured time stays close to --seconds
            # even when one command takes half of it.
            outcomes: list[Outcome] = []
            rotation = rotate_cores() if workload.workers == 1 else contextlib.nullcontext()
            with rotation:
                started = time.perf_counter()
                while len(outcomes) < MAX_REPEATS:
                    outcomes.append(runner.run(seed + len(outcomes)))
                    typical = statistics.median(o.wall_s for o in outcomes)
                    if time.perf_counter() - started + typical / 2 > seconds:
                        break
            setup += measure_setup(name, seed, run_dir, SETUP_REPEATS - len(setup))
            metrics = end_to_end_metrics(setup, outcomes)
        else:
            untraced = runner.run(seed)
            recorder = Recorder(run_dir / "spool")
            recorder.install()
            try:
                traced = runner.run(seed)
            finally:
                recorder.uninstall()
            outcomes = [untraced, traced]
            if untraced.error is None and traced.error is None \
                    and traced.digests != untraced.digests:
                traced.error = "traced artifacts differ from the untraced run"
            groups = recorder.groups()
            stats = LayerStats(groups)
            OUT_ROOT.mkdir(exist_ok=True)
            spans_path = OUT_ROOT / f"{name}-s{seed}.spans.jsonl"
            spans_to_jsonl(groups, spans_path)
            missing = list(recorder.missing)
            try:
                probe = pool_probe(runner, seed)
            except (AttributeError, TypeError, ImportError) as exc:
                missing.append(f"pool probe ({exc!r})")
                probe = (0.0, 0.0)
            metrics = layer_metrics(stats, untraced, traced, probe)
            extra = {"missing": missing, "spans": str(spans_path.relative_to(ROOT)),
                     "self_time_s": dict(stats.self_table())}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(o.error is not None for o in outcomes)
    first = outcomes[0]
    diffs = compare_reference(workload, first) if first.error is None else None
    return {
        "workload": name, "provenance": provenance(seed),
        "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
        "failed_ratio": failed / len(outcomes),
        "errors": [f"seed {o.seed}: {o.error}" for o in outcomes if o.error is not None],
        "runs": [{"seed": o.seed, "wall_s": o.wall_s, "episodes": o.episodes,
                  "summary": o.summary, "artifacts_sha256": o.digests}
                 for o in outcomes],
        "matches_reference": None if diffs is None else not diffs,
        "reference_diffs": diffs or {},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }


def print_report(result: dict, trace: bool) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['provenance']['seed']}, "
          f"{'traced' if trace else 'untraced'}, {result['attempted']} run(s))")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for run in result["runs"]:
        print(f"  seed {run['seed']}: {run['wall_s']:.3f} s, {run['episodes']} episodes, "
              f"{json.dumps(run['summary'], sort_keys=True)}")
    match = result["matches_reference"]
    print("  matches_reference: "
          + ("n/a (reference is pinned at seed %d)" % DEFAULT_SEED if match is None
             else str(match).lower())
          + (f" {json.dumps(result['reference_diffs'])}" if match is False else ""))
    walls = [run["wall_s"] for run in result["runs"]]
    print(f"  wall_s (median command, not gated): {statistics.median(walls):.3f} s")
    print(f"  failed_ratio: {result['failed_ratio']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for error in result["errors"]:
        print(f"  failure: {error.strip()}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    if trace:
        print(f"  missing boundaries: {result['missing'] or 'none'}")
        # Self times are summed over processes: pool workers count too.
        total = sum(result["self_time_s"].values()) or 1.0
        for span, secs in list(result["self_time_s"].items())[:12]:
            print(f"  self {span:36s} {secs:10.4f} s {100 * secs / total:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe-cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bltlsynth" / "__init__.py").is_file():
        print(f"bench: package source not found at {SRC}/bltlsynth; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.probe_dir, args.probe_cpu)

    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print_report(result, bool(args.trace))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{key}": metric
                                    for key, metric in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
