"""Measurement-history MDP: states, transitions, and path sampling.

A state is the sequence of (action index, right tile, left tile) triples
observed so far; the empty history is the initial state.  The state space is
never enumerated: histories materialize only when sampled.  Every commanded
action is enabled below the horizon, and each stage's tiles are drawn by
inverse CDF (``dynamics.sample_noise_interval``).

The sampler is table driven: the encoder reading of every (action, right
tile, left tile) triple is measured once per sampler, and an episode takes all
of its uniforms in one draw, in the order the per-stage scalar draws would
come (action when the policy is stochastic, then right tile, then left tile),
so the histories equal those of the scalar draws.

An episode's verdict is decided stage by stage (``PathSampler.decide``): the
history is sampled whole, then its tube stages are built one at a time and
fed through the trace walk into the mission monitor, and building stops at
the stage that fixes the verdict.  The verdict equals that of the
whole-horizon tube, trace and check of ``PathSampler.finish``.

Episodes share their first stages, so a sampler builds each history prefix's
stage once, in a prefix table of the stage-end tube state and the stage's
trace intervals.  Both are pure functions of the prefix (so is the stage's
start time: every stage lasts ``dt``), hence verdicts do not change.  The table
stops at the deepest level whose full history tree has at most
PREFIX_TABLE_NODES nodes (depth 3 on the demo): the tree bounds its size, not
the number of episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bltl import SequentialMonitor, SequentialSpec, TraceStep, check_sequential
from .dynamics import (MeasuredInterval, NoiseModel, VehicleParams,
                       measure, sample_noise_interval)
from .env import Environment
from .tracegen import (StageIntervals, TraceWalk, UncertaintyTube, stage_intervals,
                       trace_from_tube, tube_rules)
from .uncertainty import (NominalStageState, StageTerms, build_tube, propagate_stage,
                          stage_terms)

# Stream purposes for deterministic seeding.
STREAM_POLICY_EVAL = 0
STREAM_BIE = 1
STREAM_VALIDATE = 2

HistoryKey = tuple[tuple[int, int, int], ...]

EMPTY_HISTORY: HistoryKey = ()

# Node budget of a sampler's prefix table: prefixes are stored down to the
# deepest level whose full history tree has at most this many nodes.
PREFIX_TABLE_NODES = 2 ** 15


def episode_rng(master_seed: int, purpose: int, round_index: int,
                episode_index: int) -> np.random.Generator:
    """Independent generator for one episode, reproducible from the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(purpose, round_index, episode_index))
    return np.random.default_rng(ss)


def history_key_string(history: HistoryKey) -> str:
    """Canonical string form of a history, used in policy files."""
    return ";".join(f"{a},{jr},{jl}" for a, jr, jl in history)


def parse_history_key(text: str) -> HistoryKey:
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        a, jr, jl = part.split(",")
        out.append((int(a), int(jr), int(jl)))
    return tuple(out)


def decide_tube(walk: TraceWalk, monitor: SequentialMonitor,
                stages: Iterable[tuple[StageIntervals, float]]) -> tuple[bool, int]:
    """Mission verdict of a tube given stage by stage, and the stages it took.

    Each stage comes as its rules' intervals and its duration (``stage_feed``
    computes them from (stage, radius) pairs).  They go through the empty
    trace ``walk``, and every step the walk closes, then its open step,
    through the fresh mission ``monitor``.  The walk has the environment's
    ``tube_rules`` for a chain episode's tube, or its ``point_rules`` for a
    closed-loop trajectory, whose stages all come at radius 0.  No further
    stage is taken once the monitor fixes the verdict; when the stages run out
    first, the walk is finished and the verdict is that of the whole trace.
    """
    fed = k = 0
    for k, (intervals, duration) in enumerate(stages, 1):
        walk.append(intervals, duration)
        walk.advance()
        steps = walk.steps
        while fed < len(steps):
            fed += 1
            if monitor.push(*steps[fed - 1]) is not None:
                return monitor.verdict, k
        if walk.open is not None and monitor.push(*walk.open, closed=False) is not None:
            return monitor.verdict, k
    if k == 0:
        raise ValueError("cannot trace an empty trajectory")
    steps = walk.finish()
    while fed < len(steps) and monitor.push(*steps[fed]) is None:
        fed += 1
    return monitor.result(), k


@dataclass(frozen=True)
class PathSample:
    """One full-horizon rollout with its tube, trace, and verdict."""

    state: HistoryKey
    actions: tuple[int, ...]
    tube: UncertaintyTube
    trace: tuple[TraceStep, ...]
    satisfied: bool


class PathSampler:
    """Samples MDP paths and scores them against the mission spec.

    Immutable context (environment, spec, vehicle, noise, horizon) is fixed at
    construction; randomness comes from per-call generators, so instances are
    safe to share across workers.  ``measured`` and ``terms`` hold each step's
    encoder reading and the stage terms it fixes.

    ``prefixes`` maps each history prefix up to ``prefix_depth`` stages long
    that ``decide`` has met to its stage-end ``NominalStageState`` and its
    stage's ``stage_intervals``.  Both are functions of the prefix alone (a
    stage starts at the sum of the durations before it, all ``dt``), so a
    stored entry is what rebuilding the stage would give, bit for bit, and
    results do not depend on what the table holds.  It fills as episodes run
    and is left out of pickles.  Each worker of a command's worker set keeps
    its own sampler, and so its own table, for the whole command: a forked
    worker starts from the parent's table, a spawned one from an empty one.
    """

    def __init__(self, env: Environment, spec: SequentialSpec, params: VehicleParams,
                 nm: NoiseModel, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.env = env
        self.spec = spec
        self.params = params
        self.nm = nm
        self.horizon = horizon
        self.measured: dict[tuple[int, int, int], MeasuredInterval] = {
            (a, j_r, j_l): measure(nm, params, a, j_r, j_l)
            for a in range(len(params.actions))
            for j_r in range(1, nm.right.n + 1)
            for j_l in range(1, nm.left.n + 1)}
        self.terms: dict[tuple[int, int, int], StageTerms] = {
            step: stage_terms(interval, params, nm) for step, interval in self.measured.items()}
        self._rules = tube_rules(env)
        self.prefix_depth = prefix_table_depth(len(self.measured), horizon)
        self.prefixes: dict[HistoryKey, tuple[NominalStageState, StageIntervals]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["prefixes"] = {}
        return state

    def sample_history(self, policy, rng: np.random.Generator) -> HistoryKey:
        """Roll the chain to the horizon under the policy; returns the history.

        One ``rng.random`` call yields every uniform of the episode: per
        stage one for the action when the policy is stochastic, then one per
        wheel tile.
        """
        stochastic = not policy.deterministic
        k = 3 if stochastic else 2
        u = rng.random(k * self.horizon).tolist()
        history: HistoryKey = EMPTY_HISTORY
        for i in range(0, k * self.horizon, k):
            if stochastic:
                action = policy.sample_action(history, u[i])
            else:
                action = policy.best_action(history)
            j_r = sample_noise_interval(self.nm, "r", u[i + k - 2])
            j_l = sample_noise_interval(self.nm, "l", u[i + k - 1])
            history = history + ((action, j_r, j_l),)
        return history

    def measured_history(self, history: HistoryKey) -> list[tuple[int, MeasuredInterval]]:
        """Encoder readings of a history, looked up in the sampler's table."""
        return [(step[0], self.measured[step]) for step in history]

    def finish(self, history: HistoryKey) -> PathSample:
        """Build the tube and trace for a complete history and check the mission."""
        tube = build_tube(self.measured_history(history), self.env.initial_pose,
                          self.params, self.nm)
        trace = trace_from_tube(tube, self.env)
        sat = check_sequential(trace, self.spec)
        return PathSample(history, tuple(t[0] for t in history), tube, tuple(trace), sat)

    def decide(self, history: HistoryKey) -> tuple[bool, int]:
        """Verdict of a complete history, building stages only until it is fixed.

        The verdict equals ``finish(history).satisfied``; also returns the
        number of stages taken (see ``decide_tube``).
        """
        return decide_tube(TraceWalk(self._rules, self.env.unsafe),
                           SequentialMonitor(self.spec), self._stage_feed(history))

    def _stage_feed(self, history: HistoryKey) -> Iterator[tuple[StageIntervals, float]]:
        """The history's tube stages as the walk takes them, each built when
        it is asked for unless the prefix table holds it."""
        terms, rules = self.terms, self._rules
        table, depth, dt = self.prefixes, self.prefix_depth, self.params.dt
        state = NominalStageState(self.env.initial_pose, 0.0, 0.0)
        t0 = 0.0
        for k, step in enumerate(history):
            key = history[:k + 1] if k < depth else None
            entry = None if key is None else table.get(key)
            if entry is None:
                state, stage = propagate_stage(state, terms[step])
                entry = state, stage_intervals(rules, stage, state.d, t0)
                if key is not None:
                    table[key] = entry
            else:
                state = entry[0]
            yield entry[1], dt
            t0 += dt


def prefix_table_depth(branching: int, horizon: int) -> int:
    """The deepest level, at most the horizon, whose full history tree (every
    node from level 1 down to it, ``branching`` children per node) has at
    most PREFIX_TABLE_NODES nodes."""
    depth = nodes = 0
    level = 1
    while depth < horizon:
        level *= branching
        if nodes + level > PREFIX_TABLE_NODES:
            break
        nodes += level
        depth += 1
    return depth
