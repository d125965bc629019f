"""Measurement-history MDP: states, transitions, and path sampling.

A state is the sequence of (action index, right tile, left tile) triples
observed so far; the empty history is the initial state.  The state space is
never enumerated: histories materialize only when sampled.  Every commanded
action is enabled below the horizon, and each stage's tiles are drawn by
inverse CDF (``WheelNoise.tile``, bound once per episode).

The sampler is table driven: the encoder reading of every (action, right
tile, left tile) triple is measured once per sampler, and an episode takes all
of its uniforms in one draw, in the order the per-stage scalar draws would
come (action when the policy is stochastic, then right tile, then left tile).

An episode is sampled and decided in one loop (``PathSampler.decide``): per
stage it draws the step, builds the stage's tube as plain floats
(``uncertainty.propagate_stage``) and appends it, with its radius, to the
trace walk, which pushes the steps it fixes into the mission monitor
(``tracegen.TraceWalk``), until a stage fixes the verdict.  The history ends
there, as no later action can change the verdict; it starts the scalar
draws' horizon-long history, whose whole tube, trace and check
(``PathSampler.finish``) give the same verdict.

Episodes share their first stages, so a sampler builds each history
prefix's stages once, in a prefix table (``PathSampler.prefixes``) of the
tube state and the walk's snapshot, its monitor's included, after them, down
to the deepest level whose full history tree has at most PREFIX_TABLE_NODES nodes
(depth 3 on the demo): the tree bounds its size, not the number of episodes.

An episode's uniforms come from its stream, ``EpisodeStream(master seed,
purpose, round).rng(index)``: numpy's counter-based Philox generator, keyed
once per stream by ``SeedSequence(master seed, spawn_key=(purpose, round))``,
with the episode index, in [0, 2^64), as one word of its counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bltl import SequentialMonitor, SequentialSpec, TraceStep, check_sequential
from .dynamics import MeasuredInterval, NoiseModel, VehicleParams, measure
from .env import Environment
from .tracegen import TraceWalk, UncertaintyTube, trace_from_tube, tube_rules
from .uncertainty import StageTerms, TubeState, build_tube, propagate_stage, stage_terms

# Stream purposes for deterministic seeding.
STREAM_POLICY_EVAL = 0
STREAM_BIE = 1
STREAM_VALIDATE = 2

HistoryKey = tuple[tuple[int, int, int], ...]

EMPTY_HISTORY: HistoryKey = ()

# Node budget of a sampler's prefix table: prefixes are stored down to the
# deepest level whose full history tree has at most this many nodes.
PREFIX_TABLE_NODES = 2 ** 15


# Episode indices fill one 64-bit word of a Philox counter.
_INDEX_LIMIT = 1 << 64


class EpisodeStream:
    """The episode generators of one (master seed, purpose, round) stream.

    The stream is counter based (Philox; Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC 2011).  Its key is
    ``SeedSequence(master_seed, spawn_key=(purpose, round_index))
    .generate_state(2, np.uint64)``, computed once, and ``rng(index)`` gives
    the doubles of ``Generator(Philox(key=key, counter=[0, index, 0, 0]))``.
    Philox steps the counter's low word once per four outputs, so an episode
    would reach the next one's counter only after 2^66 draws.  The stream
    owns one Philox and sets its state per call (that counter, an empty
    output buffer, no spare 32-bit half), so the generator ``rng`` returns is
    reset by the next call: use it up before asking for another.  Indices
    must be ints in [0, 2^64).
    """

    def __init__(self, master_seed: int, purpose: int, round_index: int):
        self.key = (master_seed, purpose, round_index)
        self._rng: Optional[np.random.Generator] = None  # built by the first ``rng``

    def __reduce__(self):
        return EpisodeStream, self.key

    def _start(self) -> None:
        """Key the stream and build its generator; the first ``rng`` call
        does, so a process that hands every episode to workers never loads
        numpy's random module."""
        seq = np.random.SeedSequence(self.key[0], spawn_key=self.key[1:])
        key = seq.generate_state(2, np.uint64)
        self._bits = np.random.Philox(key=key)
        self._rng = np.random.Generator(self._bits)
        self._counter = [0, 0, 0, 0]
        # buffer_pos 4: the four-word output buffer is empty
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": key.tolist()},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def rng(self, index: int) -> np.random.Generator:
        """The stream's generator, set to the start of episode ``index``."""
        if not (isinstance(index, int) and 0 <= index < _INDEX_LIMIT):
            raise ValueError(f"episode index {index!r} is not an int in [0, 2**64)")
        if self._rng is None:
            self._start()
        self._counter[1] = index
        self._bits.state = self._state
        return self._rng


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
    that ``decide`` has built to its stage-end ``TubeState`` and the
    ``TraceWalk`` snapshot after its stages, which holds its monitor's (and
    so the verdict, once a prefix fixes it).  Both are functions of the
    prefix alone (a stage starts at the sum of the durations before it,
    all ``dt``), so resuming from an entry goes on as building the prefix
    again would, bit for bit, and no verdict or history depends on what the
    table holds.  It fills as episodes run and is left out of pickles.  Each worker
    of a command's worker set keeps its own sampler, and so its own table,
    for the whole command: a forked worker starts from the parent's table, a
    spawned one from an empty one.
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
        self._origin: TubeState = (env.initial_pose.x, env.initial_pose.y,
                                   env.initial_pose.theta, 0.0, 0.0)
        self.prefix_depth = prefix_table_depth(len(self.measured), horizon)
        self.prefixes: dict[HistoryKey, tuple[TubeState, tuple]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["prefixes"] = {}
        return state

    def sample_history(self, policy, rng: np.random.Generator) -> tuple[HistoryKey, bool]:
        """Roll the chain under the policy (``decide``): the history up to the
        stage that fixes its verdict, and the verdict.

        One ``rng.random`` call yields every uniform of a horizon-long
        episode: per stage one for the action when the policy is stochastic,
        then one per wheel tile; the stages after the verdict leave theirs.
        """
        k = 2 if policy.deterministic else 3
        u = rng.random(k * self.horizon).tolist()
        tile_r, tile_l = self.nm.right.tile, self.nm.left.tile

        def next_step(history: HistoryKey) -> tuple[int, int, int]:
            i = k * len(history)  # a deterministic policy ignores u[i]
            return (policy.sample_action(history, u[i]),
                    tile_r(u[i + k - 2]), tile_l(u[i + k - 1]))

        return self.decide(next_step)

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

    def decide(self, next_step: Callable[[HistoryKey], tuple[int, int, int]]
               ) -> tuple[HistoryKey, bool]:
        """Grow a history by ``next_step(history so far)`` until its stages fix
        the verdict, or to the horizon; returns the history and the verdict,
        which is ``finish(h).satisfied`` for every horizon-long ``h`` it starts.

        A prefix found in the table is restored instead of built, and each
        prefix of at most ``prefix_depth`` stages that is built is tabled, so
        the tube state and the walk, with its monitor, always stand after the
        history so far.  A prefix is tabled only after its parent, so once one
        is missing no longer one is found.
        """
        table, depth, terms = self.prefixes, self.prefix_depth, self.terms
        monitor = SequentialMonitor(self.spec)
        walk = TraceWalk(self._rules, self.env.unsafe, monitor)
        state = self._origin
        history = EMPTY_HISTORY
        for k in range(1, self.horizon + 1):
            history += (next_step(history),)
            entry = table.get(history) if k <= depth else None
            if entry is not None:
                state, walk_state = entry
                walk.restore(walk_state)
            else:
                state, stage = propagate_stage(state, terms[history[-1]])
                walk.append(stage, state[3])
                if k <= depth:
                    table[history] = (state, walk.snapshot())
            if monitor.verdict is not None:
                return history, monitor.verdict
        walk.finish()
        return history, monitor.result()


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
