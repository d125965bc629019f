"""Benchmark workloads: config generation, one command run, and its checks.

Every config is derived at run time from the package's bundled demo mission;
only ``episodes_per_round``, ``max_rounds``, ``workers``, ``batch_size``,
``delta`` and ``seed`` are overridden.  Commands run in-process through
``bltlsynth.cli.main``.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_POLICY = REFERENCE_DIR / "policy.json.gz"
REFERENCE_FILE = REFERENCE_DIR / "reference.json"

DEFAULT_SEED = 2026
NPROC = os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict
    workers: int = 1


WORKLOADS = {w.name: w for w in [
    # The paper's main loop, single-threaded: every episode samples a history,
    # builds its tube, traces and checks it.  It never opens a pool.
    Workload("demo-synth", "synth",
             {"episodes_per_round": 1000, "max_rounds": 10, "batch_size": 1}),
    # Point traces of the continuous closed loop under the pinned policy: no
    # tube, no sampler, no policy improvement.
    Workload("closed-loop-validate", "validate", {"delta": 0.01, "batch_size": 1}),
    # The same synthesis through the process pool, the only workload that
    # opens one.  Never more workers than cores.
    Workload("parallel-synth", "synth",
             {"episodes_per_round": 1000, "max_rounds": 10, "batch_size": 32},
             workers=min(2, NPROC)),
]}


def make_config(workload: Workload, seed: int, path: Path) -> Path:
    """Write the demo mission with the workload's overrides to ``path``."""
    from bltlsynth.config import builtin_config_path
    demo = builtin_config_path()
    doc = json.loads(demo.read_text())
    if isinstance(doc["environment"], str):
        doc["environment"] = json.loads((demo.parent / doc["environment"]).read_text())
    doc["algorithm"].update(workload.overrides)
    doc["workers"] = workload.workers
    doc["seed"] = seed
    path.write_text(json.dumps(doc, indent=2))
    return path


def unpack_reference_policy(path: Path) -> Path:
    path.write_bytes(gzip.decompress(REFERENCE_POLICY.read_bytes()))
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """One command run: its timing, its verdict and what it produced."""

    seed: int
    wall_s: float
    exit_code: Optional[int]
    episodes: int = 0
    error: Optional[str] = None
    summary: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


class Runner:
    """Runs a workload's command for a seed and checks what it wrote."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.workload = workload
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config = work_dir / "config.json"
        self.policy = unpack_reference_policy(work_dir / "reference_policy.json")
        self.out_dir = work_dir / "out"

    def argv(self) -> list[str]:
        argv = [self.workload.command, "--config", str(self.config),
                "--out-dir", str(self.out_dir)]
        if self.workload.command == "validate":
            argv += ["--policy", str(self.policy), "--override-hash"]
        return argv

    def run(self, seed: int) -> Outcome:
        from bltlsynth import cli
        make_config(self.workload, seed, self.config)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(self.argv())
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            return Outcome(seed, time.perf_counter() - start, None,
                           error=traceback.format_exc(limit=3))
        outcome = Outcome(seed, time.perf_counter() - start, code)
        if code != 0:
            tail = log.getvalue().strip().splitlines()[-1:]
            outcome.error = f"exit code {code}: {' '.join(tail)}"
            return outcome
        try:
            if self.workload.command == "synth":
                self._check_synth(outcome)
            else:
                self._check_validate(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.error = f"artifact check failed: {exc!r}"
        return outcome

    def _check_synth(self, outcome: Outcome) -> None:
        policy_path = self.out_dir / "policy.json"
        audit_path = self.out_dir / "audit.jsonl"
        doc = json.loads(policy_path.read_text())
        audit = [json.loads(line) for line in audit_path.read_text().splitlines()]
        summary = json.loads((self.out_dir / "summary.json").read_text())
        n_actions = len(json.loads(self.config.read_text())["vehicle"]["actions"])
        if doc["metadata"]["n_actions"] != n_actions:
            raise ValueError("policy n_actions does not match the config")
        bad = [k for k, a in doc["policy"].items()
               if not isinstance(a, int) or not 0 <= a < n_actions]
        if bad:
            raise ValueError(f"{len(bad)} policy actions outside the action set")
        if not audit or len(audit) != doc["metadata"]["rounds"] or not summary["converged"]:
            raise ValueError("audit log and policy metadata disagree")
        outcome.episodes = sum(r["eval_episodes"] + r["n"] for r in audit)
        batch = self.workload.overrides["batch_size"]
        last = audit[-1]
        outcome.summary = {
            "p_hat": doc["metadata"]["p_hat"], "rounds": len(audit),
            "bie_samples": sum(r["n"] for r in audit),
            "policy_states": last["policy_states"], "q_pairs": last["q_pairs"],
            "pool_calls": (len(audit) + sum(math.ceil(r["n"] / batch) for r in audit)
                           if self.workload.workers > 1 else 0),
        }
        outcome.digests = {"policy.json": sha256(policy_path),
                           "audit.jsonl": sha256(audit_path)}

    def _check_validate(self, outcome: Outcome) -> None:
        path = self.out_dir / "validation.json"
        doc = json.loads(path.read_text())
        if doc["bound_holds"] is not True:
            raise ValueError("validation.json reports the bound as failed")
        if not doc["system_samples"] >= 1:
            raise ValueError("validation drew no samples")
        outcome.episodes = int(doc["system_samples"])
        outcome.summary = {"p_hat": doc["system_p_hat"], "chain_p_hat": doc["chain_p_hat"],
                           "bie_samples": outcome.episodes, "bound": "PASS"}
        outcome.digests = {"validation.json": sha256(path)}


def compare_reference(workload: Workload, outcome: Outcome) -> Optional[dict]:
    """Differences from the pinned reference; None when the seed has none."""
    ref = json.loads(REFERENCE_FILE.read_text())
    if outcome.seed != ref["seed"]:
        return None
    expected = ref["workloads"][workload.name]
    diffs = {}
    for key, value in expected.items():
        got = outcome.digests.get(key) if key.endswith((".json", ".jsonl")) \
            else outcome.summary.get(key)
        if got != value:
            diffs[key] = {"expected": value, "got": got}
    return diffs
