"""Measurement-history MDP: states, transitions, and path sampling.

A state is the sequence of (action index, right tile, left tile) triples
observed so far; the empty history is the initial state.  The state space is
never enumerated: histories materialize only when sampled.  Below the horizon
every commanded action is enabled; at the horizon only a dummy self-loop
action remains.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bltl import SequentialMonitor, SequentialSpec, TraceStep, check_sequential
from .dynamics import (MeasuredInterval, NoiseModel, VehicleParams,
                       measure, sample_noise_interval)
from .env import Environment
from .tracegen import Stage, TraceWalk, UncertaintyTube, trace_from_tube, tube_rules
from .uncertainty import NominalStageState, build_tube, propagate_stage

# Reserved action index for the horizon self-loop; never a policy choice.
DUMMY_ACTION = -1

# Stream purposes for deterministic seeding.
STREAM_POLICY_EVAL = 0
STREAM_BIE = 1
STREAM_VALIDATE = 2

HistoryKey = tuple[tuple[int, int, int], ...]

EMPTY_HISTORY: HistoryKey = ()


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


def decide_tube(walk: TraceWalk, monitor: SequentialMonitor,
                stages: Iterable[tuple[Stage, float]]) -> tuple[bool, int]:
    """Mission verdict of a tube given stage by stage, and the stages it took.

    Each (stage, radius) pair goes through the empty trace ``walk``, and every
    step the walk closes, then its open step, through the fresh mission
    ``monitor``.  The walk has the environment's ``tube_rules`` for a chain
    episode's tube, or its ``point_rules`` for a closed-loop trajectory, whose
    stages all come at radius 0.  No further stage is taken once the monitor
    fixes the verdict; when the stages run out first, the walk is finished and
    the verdict is that of the whole trace.
    """
    fed = k = 0
    for k, (stage, d) in enumerate(stages, 1):
        walk.extend(stage, d)
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
    safe to share across workers.
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
        self._rules = tube_rules(env)

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
        number of stages built (see ``decide_tube``).
        """
        return decide_tube(TraceWalk(self._rules, self.env.unsafe),
                           SequentialMonitor(self.spec), self._tube_stages(history))

    def _tube_stages(self, history: HistoryKey) -> Iterator[tuple[Stage, float]]:
        """The history's tube stages with their radii, built as they are asked for."""
        params, nm, measured = self.params, self.nm, self.measured
        state = NominalStageState(self.env.initial_pose, 0.0, 0.0)
        for step in history:
            state, stage = propagate_stage(state, params.actions[step[0]], measured[step],
                                           params, nm)
            yield stage, state.d

    def sample_path(self, policy, rng: np.random.Generator) -> PathSample:
        """One rollout: sample a history, then tube, trace, and verdict."""
        return self.finish(self.sample_history(policy, rng))
