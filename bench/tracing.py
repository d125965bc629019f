"""In-memory span recorder for the traced benchmark run.

Each span is recorded at a module boundary of the package, from the
benchmark's side: the wrapped attribute is the name the *calling* module looks
up (``PathSampler.finish`` calls ``bltlsynth.mdp.build_tube``, so that is the
attribute replaced).  The package itself is never edited.  A span is
``(name, start_ns, end_ns, parent_index, value)``; ``value`` is an optional
observation of the result (trace length, verdict).

Episodes that a process pool runs in forked workers are recorded in the
worker and written to a spool directory at the end of each chunk; the parent
reads them back after the run.  Under a start method that re-imports the
package in the worker (spawn, forkserver) worker spans are simply absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable

# (span name, module whose attribute is replaced, attribute path)
BOUNDARIES: list[tuple[str, str, str]] = [
    ("cli.main", "bltlsynth.cli", "main"),
    ("config.load_config", "bltlsynth.cli", "load_config"),
    ("cli.load_policy_file", "bltlsynth.cli", "load_policy_file"),
    ("synthesis.synthesize", "bltlsynth.cli", "synthesize"),
    ("synthesis.validate_true_system", "bltlsynth.cli", "validate_true_system"),
    ("synthesis.evaluate_policy", "bltlsynth.synthesis", "evaluate_policy"),
    ("synthesis.improve_policy", "bltlsynth.synthesis", "improve_policy"),
    ("synthesis.determinize", "bltlsynth.synthesis", "determinize"),
    ("synthesis.bie_estimate", "bltlsynth.synthesis", "bie_estimate"),
    ("synthesis.map_episodes", "bltlsynth.synthesis", "_map_episodes"),
    ("synthesis.run_chunk", "bltlsynth.synthesis", "_run_chunk"),
    ("synthesis.simulate_true_system", "bltlsynth.synthesis", "simulate_true_system"),
    ("tracegen.trace_from_trajectory", "bltlsynth.synthesis", "trace_from_trajectory"),
    ("bltl.check_sequential", "bltlsynth.synthesis", "check_sequential"),
    ("mdp.sample_history", "bltlsynth.mdp", "PathSampler.sample_history"),
    ("dynamics.measure", "bltlsynth.mdp", "measure"),
    ("uncertainty.build_tube", "bltlsynth.mdp", "build_tube"),
    ("tracegen.trace_from_tube", "bltlsynth.mdp", "trace_from_tube"),
    ("bltl.check_sequential", "bltlsynth.mdp", "check_sequential"),
]

# Observations kept per call: tube trace length, and the checker's verdict.
OBSERVE: dict[str, Callable[[object], float]] = {
    "tracegen.trace_from_tube": len,
    "bltl.check_sequential": lambda verdict: 1.0 if verdict else 0.0,
}

# A worker writes its spans when this wrapped function returns.
WORKER_ROOT = "synthesis.run_chunk"


class Recorder:
    """Replaces boundary functions with span-recording wrappers.

    ``install`` patches, ``uninstall`` restores; a boundary whose module or
    attribute no longer exists is listed in ``missing`` instead of failing.
    """

    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._in_worker = False
        self._flushes = 0

    def install(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)
        for name, module_name, path in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _after_fork(self) -> None:
        if self._patched:
            self._in_worker = True
            self.spans.clear()
            self.stack.clear()

    def _flush_worker(self) -> None:
        self._flushes += 1
        tag = f"{os.getpid()}-{self._flushes}"
        with open(self.spool / f"spans-{tag}.json", "w") as fp:
            json.dump({"process": tag, "spans": self.spans}, fp)
        self.spans.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OBSERVE.get(name)
        flush_after = name == WORKER_ROOT

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if observe is not None:
                spans[index] = (name, start, end, parent, observe(result))
            if flush_after and self._in_worker and not stack:
                self._flush_worker()
            return result

        return wrapped

    def groups(self) -> list[tuple[str, list]]:
        """Span lists per process: this one first, then every worker chunk."""
        out = [("main", list(self.spans))]
        for path in sorted(self.spool.glob("spans-*.json")):
            doc = json.loads(path.read_text())
            out.append((doc["process"], [tuple(s) for s in doc["spans"]]))
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class LayerStats:
    """Per-name call counts, durations, self times and observations."""

    def __init__(self, groups: list[tuple[str, list]]):
        self.durations_ns: dict[str, list[int]] = {}
        self.self_ns: dict[str, int] = {}
        self.values: dict[str, list[float]] = {}
        self.main_self_ns = 0
        for process, spans in groups:
            child_ns = [0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (name, start, end, parent, value), children in zip(spans, child_ns):
                own = end - start - children
                self.durations_ns.setdefault(name, []).append(end - start)
                self.self_ns[name] = self.self_ns.get(name, 0) + own
                if value is not None:
                    self.values.setdefault(name, []).append(value)
                if process == "main":
                    self.main_self_ns += own
        for values in self.durations_ns.values():
            values.sort()

    def calls(self, name: str) -> int:
        return len(self.durations_ns.get(name, ()))

    def us(self, name: str, q: float) -> float:
        return percentile(self.durations_ns.get(name, []), q) / 1e3

    def total_s(self, name: str) -> float:
        return sum(self.durations_ns.get(name, ())) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def mean_value(self, name: str) -> float:
        values = self.values.get(name)
        return sum(values) / len(values) if values else 0.0

    def self_table(self) -> list[tuple[str, float]]:
        return sorted(((n, self.self_s(n)) for n in self.self_ns),
                      key=lambda item: -item[1])


def spans_to_jsonl(groups: list[tuple[str, list]], path: Path) -> None:
    """Write every span as one JSON line (times in ns since the run's first)."""
    origin = min((s[1] for _, spans in groups for s in spans), default=0)
    with open(path, "w") as fp:
        for process, spans in groups:
            for index, (name, start, end, parent, value) in enumerate(spans):
                fp.write(json.dumps({"process": process, "id": index, "name": name,
                                     "start_ns": start - origin, "end_ns": end - origin,
                                     "parent": parent, "value": value}) + "\n")
