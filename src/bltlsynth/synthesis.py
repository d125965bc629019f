"""Sampling-based policy synthesis, Bayesian estimation, and validation.

The loop alternates policy evaluation (Monte-Carlo estimates of how likely
each visited state-action pair is to end in a satisfying trace), a convex
reinforcement step toward each state's best action, determinization, and a
Bayesian interval estimate of the deterministic policy's success probability.
It stops when consecutive round estimates agree to within a radius.  A chain
episode ends at the stage that fixes its verdict, so only histories whose
action can still change a verdict get rows.

A policy's index from measurement history to row is the only such map: the
round's Q estimates are one array on the rows of the round policy's index,
and the histories an evaluation reaches first get rows after them.  Each
step is one array operation over all rows: smoothing the estimates, the
convex step toward each row's argmax, and determinization.

The resulting deterministic policy doubles as the vehicle control strategy:
fed the measurement history (``Policy.best_action``), it returns the next
wheel-speed command, and the continuous closed-loop system can be simulated
against it to validate that the real success probability is not below the
estimate from the chain.  A validation episode simulates the closed loop one
stage at a time and appends each stage, at radius 0, to a point-trace walk
that pushes its steps into the mission monitor, as a chain episode's tube
walk does (``tracegen.decide_tube``); it stops at the stage that fixes its
verdict.  ``simulate_true_system`` is the whole-horizon form.

A command runs its episodes on one worker set (``_WorkerSet``), the one
holder of its episode task: ``synthesize`` and ``validate_true_system`` each
open one of ``_pool_workers(workers)`` processes (validation no more than its
``batch_size``; with one worker or one CPU none start and the task runs in the
parent) and keep it until they return, so a worker's sampler keeps its prefix
table from round to round.  Once per round a synthesis sends the set the
histories the round's evaluation gave rows after the policy index's and the
argmax column of the round's Q estimates, at the smallest signed integer dtype that holds an action
index; the parent's copy of the task and every worker's take the round's
convex step (``improve_policy``) and determinize the policy alike
(``_SynthesisRounds``).  Draws go out as index chunks, one per worker, and
results come back in index order, so no result depends on the worker count.

Each episode task owns the ``mdp.EpisodeStream`` of its master seed, purpose
and round (a chain task's evaluation or estimation round, validation's round
0): a Philox generator keyed once by ``SeedSequence(master seed,
spawn_key=(purpose, round))``.  Episode ``i``, for ``i`` in [0, 2^64), draws
from it with the counter set to ``[0, i, 0, 0]``, so an episode's draws do
not depend on which process runs it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bltl import (Formula, SequentialMonitor, SequentialSpec, check_sequential,
                   horizon_stages, to_sequential)
from .config import AlgorithmParams
from .dynamics import NoiseModel, VehicleParams, integrate_body, wheel_to_body
from .env import Environment
from .mdp import (EMPTY_HISTORY, EpisodeStream, HistoryKey, PathSampler, STREAM_BIE,
                  STREAM_POLICY_EVAL, STREAM_VALIDATE)
from .tracegen import (Stage, TraceWalk, Trajectory, decide_tube, point_rules,
                       trace_from_trajectory)


# ---------------------------------------------------------------------------
# Policies and Q estimates: an index from history to row, arrays by row

@dataclass
class Policy:
    """Action choice per measurement history.

    ``index`` maps each history with its own row to that row's number.  A
    stochastic policy holds an S×A matrix ``probs`` of action probabilities;
    a deterministic one holds an action index per row in ``actions``.
    Unseen histories fall back to the default rule: uniform for stochastic
    policies, action 0 for deterministic ones.  Rows never include the dummy
    horizon action.  An index is never changed once a policy holds it, so
    policies may share one.

    ``sample_action`` reads each row of ``probs``, and the default row, once:
    its normalised CDF is kept from the first draw on (and left out of
    pickles), so ``probs`` must not change once actions are drawn.
    """

    n_actions: int
    index: dict[HistoryKey, int]
    probs: Optional[np.ndarray] = None
    actions: Optional[list[int]] = None
    _cdf: dict[Optional[int], list[float]] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_cdf": {}}

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        if (self.probs is None) != (other.probs is None):
            return False
        return (self.n_actions == other.n_actions and self.index == other.index
                and self.actions == other.actions
                and (self.probs is None or np.array_equal(self.probs, other.probs)))

    @property
    def deterministic(self) -> bool:
        return self.actions is not None

    def best_action(self, state: HistoryKey) -> int:
        """Next commanded action for a history (the default rule on unseen ones)."""
        i = self.index.get(state)
        if i is None:
            # Both default rules (uniform, action 0) peak at action 0.
            return 0
        if self.actions is not None:
            return self.actions[i]
        return int(self.probs[i].argmax())

    def sample_action(self, state: HistoryKey, u: float) -> int:
        """Action for the uniform draw u in [0, 1).

        Inverse CDF of the state's row, by the recipe of
        ``Generator.choice(n, p=row)`` (running sums, divided by the last,
        searched right of u), so a draw u gives the action ``choice`` would.
        """
        if self.actions is not None:
            return self.best_action(state)
        i = self.index.get(state)
        cdf = self._cdf.get(i)
        if cdf is None:
            row = [1.0 / self.n_actions] * self.n_actions if i is None else self.probs[i].tolist()
            sums = list(accumulate(row))
            cdf = self._cdf[i] = [c / sums[-1] for c in sums]
        return bisect_right(cdf, u)


def uniform_policy(n_actions: int) -> Policy:
    return Policy(n_actions, {}, probs=np.empty((0, n_actions)))


@dataclass
class QTable:
    """Estimated satisfaction probability of each visited (history, action)
    pair, as an S×A array ``estimate`` on the rows of the round policy's
    index.

    A pair never visited reads -inf, and so does every row past the array's
    end, so an argmax over a row never picks an unvisited pair.  A visited
    pair's estimate is a ratio in [0, 1] or a blend of such ratios, so it is
    finite.
    """

    estimate: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def q_pairs(self) -> int:
        """Number of state-action pairs visited so far."""
        return int(np.count_nonzero(np.isfinite(self.estimate)))

    def merged(self, sat: np.ndarray, visits: np.ndarray, history_weight: float) -> "QTable":
        """Fold fresh per-round counts into a new table.

        ``sat`` and ``visits`` count satisfying and all visits per pair, on
        this table's rows followed by the round's new histories.  Pairs seen
        before take the convex combination h*old + (1-h)*fresh; first-time
        pairs take the fresh ratio; untouched pairs carry over.
        """
        rows = len(self.estimate)
        if rows > len(visits):
            raise ValueError(f"a table of {rows} rows cannot take counts on {len(visits)} "
                             f"rows: it was built on another index")
        h = history_weight
        old = np.full(visits.shape, -np.inf)
        if rows:
            old[:rows] = self.estimate
        fresh = sat / np.maximum(visits, 1)
        blended = np.where(np.isfinite(old), h * old + (1.0 - h) * fresh, fresh)
        return QTable(np.where(visits == 0, old, blended))


# ---------------------------------------------------------------------------
# Episode execution (shared by evaluation, estimation, and validation)

@dataclass(frozen=True)
class _ChainTask:
    """Chain episodes under a policy on one seed stream: (history, verdict).

    The task owns its ``EpisodeStream`` of (master seed, stream, round), so
    its worker-side copies each set up their own episodes' generators.
    """

    sampler: PathSampler
    policy: Policy
    master_seed: int
    stream: int
    round_index: int
    episodes: EpisodeStream = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "episodes",
                           EpisodeStream(self.master_seed, self.stream, self.round_index))

    def run(self, index: int) -> tuple[HistoryKey, bool]:
        return self.sampler.sample_history(self.policy, self.episodes.rng(index))


@dataclass(frozen=True)
class _SynthesisRounds:
    """A synthesis's episode task for the whole command: the chain task its
    draws run, and the round's stochastic policy, which the next round's
    evaluation runs under.  The sampler, and so its prefix table, stays the
    same throughout.

    The command's worker set holds it, in the parent and in every worker, and
    ``_WorkerSet.send`` moves every copy from phase to phase: ``estimating``
    takes the round's convex step from the histories the round's evaluation
    gave rows after the index's and the argmax column of the round's Q
    estimates, and
    ``evaluating`` starts the next round's evaluation.  The parent reads the
    round's policy and its determinization from its own copy.
    """

    chain: _ChainTask
    policy: Policy
    greediness: float

    def run(self, index: int) -> tuple[HistoryKey, bool]:
        return self.chain.run(index)

    def estimating(self, new_histories: list[HistoryKey],
                   best: np.ndarray) -> "_SynthesisRounds":
        """The round's estimation, under the determinization of its policy."""
        policy = improve_policy(self.policy, new_histories, best, self.greediness)
        return replace(self, chain=replace(self.chain, policy=determinize(policy),
                                           stream=STREAM_BIE), policy=policy)

    def evaluating(self, round_index: int) -> "_SynthesisRounds":
        """The evaluation of round ``round_index``, under the last round's policy."""
        return replace(self, chain=replace(self.chain, policy=self.policy,
                                           stream=STREAM_POLICY_EVAL,
                                           round_index=round_index))


@dataclass(frozen=True)
class _TrueSystemTask:
    """Closed-loop validation episodes under the strategy: verdicts.

    An episode's stages are simulated one at a time and fed, at radius 0,
    through the point-trace walk into the mission monitor; simulation stops
    at the stage that fixes the verdict (under the pinned seed-2026
    benchmark policy, after 4.19 of 9 stages on average).  The verdict
    equals that of ``simulate_true_system`` on the same episode generator,
    which comes from the task's own stream of (master seed, validation, 0).
    """

    env: Environment
    spec: SequentialSpec
    params: VehicleParams
    nm: NoiseModel
    policy: Policy
    horizon: int
    master_seed: int
    rules: list = field(init=False, repr=False, compare=False)
    episodes: EpisodeStream = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", point_rules(self.env))
        object.__setattr__(self, "episodes", EpisodeStream(self.master_seed, STREAM_VALIDATE, 0))

    def decide(self, index: int) -> tuple[bool, int]:
        """Verdict of episode ``index``, and the stages simulated to fix it."""
        stages = _closed_loop_stages(self.policy, self.env, self.params, self.nm,
                                     self.horizon, self.episodes.rng(index))
        return decide_tube(TraceWalk(self.rules, self.env.unsafe, SequentialMonitor(self.spec)),
                           ((stage, 0.0) for stage, _ in stages))

    def run(self, index: int) -> bool:
        return self.decide(index)[0]


def _run_chunk(task, indices: Sequence[int]) -> list:
    return [task.run(i) for i in indices]


def _pool_workers(workers: int) -> int:
    """The requested worker count capped at the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


# Seconds a worker waits for a message before it checks that its parent lives.
_PARENT_CHECK_S = 1.0
# Seconds an idle worker is given to stop on the stop message before it is
# terminated.
_STOP_WAIT_S = 5.0


def _worker_main(conn, task) -> None:
    """A worker's loop: run chunks of its task's episodes, or replace the task
    with an update of it, until the stop message (None) comes or the parent
    is gone.  Every other message gets one reply: ("ok", value) or
    ("error", exception, formatted traceback)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    parent = os.getppid()
    while True:
        while not conn.poll(_PARENT_CHECK_S):
            if os.getppid() != parent:
                return
        message = conn.recv()
        if message is None:
            return
        try:
            if message[0] == "run":
                reply = ("ok", _run_chunk(task, message[1]))
            else:
                _, update, args = message
                task = update(task, *args)
                reply = ("ok", None)
        except Exception as exc:
            reply = ("error", exc, traceback.format_exc())
        try:
            conn.send(reply)
        except Exception:  # an exception that does not pickle
            conn.send(("error", RuntimeError(repr(reply[1])), reply[-1]))


class _WorkerSet:
    """A command's episode task, held for the whole command as ``task`` in
    this process and, with a ``size`` above 1, in that many worker processes.

    The processes start on entering, with the default start method, each with
    one pipe: a forked worker inherits the task, a spawned one unpickles it
    (a spawned sampler's prefix table starts empty).  A worker keeps its task,
    and so a sampler's prefix table, until the set is left.  ``send`` updates
    ``task`` and every worker's copy alike; ``map`` runs episodes in index
    chunks, one per worker, or in this process with no workers or a single
    index.  An exception in a worker reaches the caller with its type; a
    worker that dies raises a RuntimeError that names it.  Leaving the set
    stops every worker and joins it: idle ones after a normal exit, all of
    them at once by terminating after an exception.
    """

    def __init__(self, task, size: int):
        self.task = task
        self.size = size
        self._procs: list = []
        self._conns: list = []

    def __enter__(self) -> "_WorkerSet":
        ctx = multiprocessing.get_context()
        try:
            for i in range(self.size if self.size > 1 else 0):
                conn, child = ctx.Pipe()
                self._conns.append(conn)
                try:
                    proc = ctx.Process(target=_worker_main, args=(child, self.task),
                                       name=f"bltlsynth-worker-{i + 1}", daemon=True)
                    proc.start()
                finally:
                    child.close()
                self._procs.append(proc)
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for conn in self._conns:
                with suppress(OSError):
                    conn.send(None)
        for proc in self._procs:
            proc.join(_STOP_WAIT_S if exc_type is None else 0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in self._conns:
            conn.close()

    def send(self, update: Callable, *args) -> None:
        """Replace ``task``, and every worker's copy of it, with
        ``update(task, *args)``.

        ``update`` must pickle by name (a module-level function or method);
        the message is pickled once for all workers, which apply it while this
        process does.
        """
        if self._conns:
            message = pickle.dumps(("update", update, args), pickle.HIGHEST_PROTOCOL)
            for i in range(len(self._conns)):
                self._send(i, message)
        self.task = update(self.task, *args)
        for i in range(len(self._conns)):
            self._reply(i)

    def map(self, indices: Sequence[int]) -> list:
        """The task's results over the indices, in index order: one
        contiguous chunk per worker, at most one per index."""
        k = min(len(self._conns), len(indices))
        if k < 2:
            return _run_chunk(self.task, indices)
        q, r = divmod(len(indices), k)
        bounds = [0, *accumulate(q + (i < r) for i in range(k))]
        for i in range(k):
            chunk = indices[bounds[i]:bounds[i + 1]]
            self._send(i, pickle.dumps(("run", chunk), pickle.HIGHEST_PROTOCOL))
        out: list = []
        for i in range(k):
            out.extend(self._reply(i))
        return out

    def _send(self, i: int, message: bytes) -> None:
        try:
            self._conns[i].send_bytes(message)
        except OSError:
            raise self._died(i) from None

    def _reply(self, i: int):
        try:
            reply = self._conns[i].recv()
        except EOFError:
            raise self._died(i) from None
        if reply[0] == "error":
            _, exc, formatted = reply
            raise exc from RuntimeError(f"in {self._procs[i].name}:\n{formatted}")
        return reply[1]

    def _died(self, i: int) -> RuntimeError:
        proc = self._procs[i]
        proc.join(_STOP_WAIT_S)
        return RuntimeError(f"episode worker {proc.name} (pid {proc.pid}) died "
                            f"with exit code {proc.exitcode}")


def _worker_set(task, workers: int) -> _WorkerSet:
    """The ``_WorkerSet`` holding the task at ``_pool_workers(workers)``
    processes; with one worker or one CPU it starts none."""
    return _WorkerSet(task, _pool_workers(workers))


def _map_episodes(pool: _WorkerSet, indices: Sequence[int]) -> list:
    """Run the set's task over episode indices, across its workers if any.

    Results come back in index order, so the outcome is independent of the
    worker count.
    """
    return pool.map(indices)


# ---------------------------------------------------------------------------
# Policy evaluation / improvement / determinization

def evaluate_policy(policy: Policy, n_episodes: int, qtable: QTable,
                    sampler: PathSampler, *, history_weight: float,
                    master_seed: int, round_index: int = 0, workers: int = 1,
                    pool: Optional[_WorkerSet] = None
                    ) -> tuple[QTable, int, list[HistoryKey]]:
    """Sample paths under the policy and refresh the Q estimates.

    Every (state, action) pair along a path, which ends at the stage that
    fixes its verdict, is credited with the verdict at its row of
    ``policy.index``; per-pair ratios are folded into ``qtable``, which is on
    that index's rows, with the history weight.  A prefix with no row gets one
    after the index's, in the order the episodes first reach them.  Returns
    the new table, the number of satisfying paths, and those new histories.
    The episodes run on ``pool``, a command's worker set whose task is this
    evaluation under the policy (``synthesize`` passes its own, with the
    policy that set holds), or else on a worker set of ``workers`` opened for
    this call alone.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if not 0.0 < history_weight < 1.0:
        raise ValueError("history weight must lie in (0, 1)")
    if pool is None:
        task = _ChainTask(sampler, policy, master_seed, STREAM_POLICY_EVAL, round_index)
        with _worker_set(task, workers) as own:
            results = _map_episodes(own, range(n_episodes))
    else:
        results = _map_episodes(pool, range(n_episodes))
    index = policy.index
    new: dict[HistoryKey, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    verdicts: list[bool] = []
    for history, satisfied in results:
        for k, step in enumerate(history):
            row = index.get(history[:k])
            if row is None:
                row = new.setdefault(history[:k], len(index) + len(new))
            rows.append(row)
            cols.append(step[0])
            verdicts.append(satisfied)
    sat = np.zeros((len(index) + len(new), policy.n_actions), dtype=np.int64)
    visits = np.zeros_like(sat)
    np.add.at(sat, (rows, cols), verdicts)
    np.add.at(visits, (rows, cols), 1)
    n_sat = sum(satisfied for _, satisfied in results)
    return qtable.merged(sat, visits, history_weight), n_sat, list(new)


def improve_policy(policy: Policy, new_histories: Sequence[HistoryKey], best: np.ndarray,
                   greediness: float) -> Policy:
    """Shift each state's distribution toward its best-rated action.

    The policy's index is extended by ``new_histories``, in order, whose rows
    start from the uniform distribution.  ``best`` holds an action per row of
    the extended index: the argmax column of the round's Q estimates, whose
    ties break to the lowest action index.  New row = (1-g) * old row +
    g * indicator(best).
    """
    if not 0.0 < greediness < 1.0:
        raise ValueError("greediness must lie in (0, 1)")
    index = dict(policy.index)
    for history in new_histories:
        index[history] = len(index)
    if len(best) != len(index):
        raise ValueError("need one best action per row of the extended index")
    n_actions = policy.n_actions
    probs = np.full((len(index), n_actions), 1.0 / n_actions)
    probs[:len(policy.probs)] = policy.probs
    probs *= 1.0 - greediness
    probs[np.arange(len(probs)), best] += greediness
    return Policy(n_actions, index, probs=probs)


def determinize(policy: Policy) -> Policy:
    """Deterministic argmax policy of a stochastic one (ties to the lowest action)."""
    return Policy(policy.n_actions, policy.index,
                  actions=policy.probs.argmax(axis=1).tolist())


# ---------------------------------------------------------------------------
# Bayesian interval estimation

# Terms of the incomplete Beta continued fraction before it is taken not to
# converge; near x = a/(a+b) it needs O(sqrt(max(a, b))) of them.
_FRACTION_TERMS = 100_000
# The tail sums of ``coverage_upper_bound``: steps per tail, and each step's
# width in posterior standard deviations.
_TAIL_STEPS = 6
_TAIL_STEP_SD = 0.5
# How far the bound must lie below the confidence before the exact mass is
# skipped.  The bound's own rounding error grows as ~1e-15 n (2e-9 at n = 10^6).
_BOUND_MARGIN = 1e-8


@dataclass(frozen=True)
class BieResult:
    """Posterior-mean estimate with its half-width-delta credible interval."""

    p_hat: float
    n: int
    successes: int
    lo: float
    hi: float
    coverage: float


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete Beta function I_x(a, b) for a, b > 0.

    The continued fraction of Numerical Recipes' ``betacf``, evaluated by the
    modified Lentz method, times an ``lgamma`` prefactor.  The fraction
    converges fast for x < (a+1)/(a+b+2); above that point the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) is used.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), to double precision, for
    0 < x < (a+1)/(a+b+2), where its first denominator is positive."""
    tiny = 1e-300  # stands in for a zero denominator
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _FRACTION_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / d if abs(d) >= tiny else 1.0 / tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 + aa * d
        d = 1.0 / d if abs(d) >= tiny else 1.0 / tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= 1e-15:
            return h
    raise ArithmeticError(f"incomplete Beta fraction did not converge at a={a}, b={b}, x={x}")


def coverage_upper_bound(a: float, b: float, lo: float, hi: float, below: float = 0.0) -> float:
    """An upper bound on the Beta(a, b) mass on [lo, hi], for a, b > 1.

    The density f is log-concave, so over a step [s, t] it is at least the
    geometric interpolation of f(s) and f(t), whose integral is the step
    width times the logarithmic mean (f(t) - f(s)) / (ln f(t) - ln f(s)),
    here taken from the larger of the two so that it cannot overflow.
    Summed over ``_TAIL_STEPS`` steps of ``_TAIL_STEP_SD`` posterior standard
    deviations outward from lo and from hi, these bound the two tails' mass
    from below, and one minus them bounds the mass on [lo, hi] from above.
    The sums stop as soon as the bound is below ``below``.
    """
    log, log1p, exp, expm1 = math.log, math.log1p, math.exp, math.expm1
    am1, bm1 = a - 1.0, b - 1.0
    step = _TAIL_STEP_SD * math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    log_norm = log(step) - _log_beta(a, b)
    # log f at each tail's inner step end (f vanishes at 0 and 1)
    log_fl = am1 * log(lo) + bm1 * log1p(-lo) if 0.0 < lo < 1.0 else -math.inf
    log_fr = am1 * log(hi) + bm1 * log1p(-hi) if 0.0 < hi < 1.0 else -math.inf
    bound = 1.0
    for k in range(1, _TAIL_STEPS + 1):  # the two tails in turn, nearest steps first
        t = lo - k * step
        if t > 0.0:
            log_ft = am1 * log(t) + bm1 * log1p(-t)
            d = abs(log_fl - log_ft)
            bound -= exp(max(log_fl, log_ft) + log_norm) * (-expm1(-d) / d if d else 1.0)
            if bound < below:
                return bound
            log_fl = log_ft
        t = hi + k * step
        if t < 1.0:
            log_ft = am1 * log(t) + bm1 * log1p(-t)
            d = abs(log_fr - log_ft)
            bound -= exp(max(log_fr, log_ft) + log_norm) * (-expm1(-d) / d if d else 1.0)
            if bound < below:
                return bound
            log_fr = log_ft
    return bound


def posterior_interval_coverage(x: int, n: int, alpha: float, beta: float,
                                delta: float, below: float = 0.0
                                ) -> tuple[float, float, float, float]:
    """Posterior mean, its interval [mean-delta, mean+delta] clipped to [0, 1],
    and the Beta(x+alpha, n-x+beta) mass on that interval.

    Where ``coverage_upper_bound`` shows the mass to lie below ``below`` by
    far more than the bound's rounding error, that bound stands in for the
    exact mass, which costs several times more.
    """
    p_hat = (x + alpha) / (n + alpha + beta)
    lo = max(0.0, p_hat - delta)
    hi = min(1.0, p_hat + delta)
    a, b = x + alpha, n - x + beta
    if a > 1.0 and b > 1.0:
        bound = coverage_upper_bound(a, b, lo, hi, below - _BOUND_MARGIN)
        if bound < below - _BOUND_MARGIN:
            return p_hat, lo, hi, bound
    return p_hat, lo, hi, beta_cdf(hi, a, b) - beta_cdf(lo, a, b)


def bie_estimate(draw: Callable[[int, int], Sequence[bool]], delta: float,
                 confidence: float, alpha: float, beta: float,
                 batch_size: int = 1) -> BieResult:
    """Sample Bernoulli verdicts until the posterior concentrates.

    ``draw(start, count)`` returns ``count`` verdicts for episode indices
    ``start..start+count-1``.  After each batch the Beta(x+alpha, n-x+beta)
    posterior mass on the clipped interval [p_hat-delta, p_hat+delta] is
    evaluated; sampling stops once it reaches the confidence level.  The mass
    is computed exactly only where ``coverage_upper_bound`` cannot show it to
    be below the confidence, so each stop is the one the exact rule makes.  The
    sample count is batch-granular; batch size 1 is the exact sequential
    procedure.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if not 0.5 < confidence < 1.0:
        raise ValueError("confidence must lie in (1/2, 1)")
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError("prior coefficients must be positive and finite")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    n = 0
    x = 0
    while True:
        verdicts = draw(n, batch_size)
        if len(verdicts) != batch_size:
            raise ValueError("draw returned the wrong number of verdicts")
        x += sum(bool(v) for v in verdicts)
        n += batch_size
        p_hat, lo, hi, coverage = posterior_interval_coverage(x, n, alpha, beta, delta,
                                                              confidence)
        if coverage >= confidence:
            return BieResult(p_hat, n, x, lo, hi, coverage)


# ---------------------------------------------------------------------------
# The synthesis loop

@dataclass(frozen=True)
class RoundRecord:
    """Audit entry for one synthesis round."""

    round_index: int
    eval_satisfied: int
    eval_episodes: int
    p_hat: float
    n: int
    successes: int
    coverage: float
    change_from_previous: Optional[float]
    q_pairs: int
    policy_states: int


@dataclass
class SynthesisResult:
    policy: Policy
    estimate: BieResult
    rounds: list[RoundRecord]
    converged: bool
    horizon: int
    qtable: QTable


def synthesize(env: Environment, formula: Formula, params: VehicleParams,
               nm: NoiseModel, algorithm: AlgorithmParams, *, master_seed: int,
               workers: int = 1) -> SynthesisResult:
    """Iterate evaluation, improvement, and estimation until estimates settle.

    The loop always runs at least two rounds and stops when consecutive
    deterministic-policy estimates differ by at most the algorithm's stop
    radius; if its max_rounds pass without that happening the result is
    flagged as not converged.
    """
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)
    sampler = PathSampler(env, spec, params, nm, horizon)

    uniform = uniform_policy(len(params.actions))
    # the smallest signed type that holds -n_actions holds every action
    action_type = np.min_scalar_type(-uniform.n_actions)
    qtable = QTable()
    rounds: list[RoundRecord] = []
    prev_estimate: Optional[float] = None
    estimate: Optional[BieResult] = None
    converged = False

    first = _ChainTask(sampler, uniform, master_seed, STREAM_POLICY_EVAL, 1)
    with _worker_set(_SynthesisRounds(first, uniform, algorithm.greediness), workers) as pool:
        def draw(start: int, count: int) -> list[bool]:
            episodes = _map_episodes(pool, range(start, start + count))
            return [satisfied for _, satisfied in episodes]

        for round_index in range(1, algorithm.max_rounds + 1):
            if round_index > 1:
                pool.send(_SynthesisRounds.evaluating, round_index)
            qtable, n_sat, new_histories = evaluate_policy(
                pool.task.policy, algorithm.episodes_per_round, qtable, sampler,
                history_weight=algorithm.history_weight, master_seed=master_seed,
                round_index=round_index, pool=pool)
            best = qtable.estimate.argmax(axis=1).astype(action_type)
            pool.send(_SynthesisRounds.estimating, new_histories, best)
            estimate = bie_estimate(draw, algorithm.delta, algorithm.confidence,
                                    algorithm.prior_alpha, algorithm.prior_beta,
                                    batch_size=algorithm.batch_size)
            change = (None if prev_estimate is None
                      else abs(estimate.p_hat - prev_estimate))
            rounds.append(RoundRecord(
                round_index=round_index, eval_satisfied=n_sat,
                eval_episodes=algorithm.episodes_per_round, p_hat=estimate.p_hat,
                n=estimate.n, successes=estimate.successes,
                coverage=estimate.coverage, change_from_previous=change,
                q_pairs=qtable.q_pairs, policy_states=len(pool.task.policy.index)))
            if change is not None and change <= algorithm.stop_radius:
                converged = True
                break
            prev_estimate = estimate.p_hat

    assert estimate is not None
    return SynthesisResult(policy=pool.task.chain.policy, estimate=estimate, rounds=rounds,
                           converged=converged, horizon=horizon, qtable=qtable)


# ---------------------------------------------------------------------------
# Vehicle control strategy and continuous-system validation

def _closed_loop_stages(policy: Policy, env: Environment, params: VehicleParams,
                        nm: NoiseModel, horizon: int, rng: np.random.Generator
                        ) -> Iterator[tuple[Stage, HistoryKey]]:
    """The closed loop's stages under the strategy, simulated as they are
    asked for, each with the history that ends with its encoder reading.

    Per stage: look up the action for the history so far, draw each wheel's
    noise (tile by its probability, position uniformly within the tile),
    integrate the exact kinematics (``integrate_body``) on floats, and append
    the encoder reading.  Each wheel's draws are bound once per episode.  The
    episode's uniforms are one draw up front, in the order of four scalar
    draws per stage, so the stream is the same however many stages are taken.
    """
    p = env.initial_pose
    x, y, theta = p.x, p.y, p.theta
    tile_r, noise_r = nm.right.tile, nm.right.noise_in_tile
    tile_l, noise_l = nm.left.tile, nm.left.noise_in_tile
    actions, dt = params.actions, params.dt
    history: HistoryKey = EMPTY_HISTORY
    u = rng.random(4 * horizon).tolist()
    for i in range(0, 4 * horizon, 4):
        action = policy.best_action(history)
        u_r, u_l = actions[action]
        j_r = tile_r(u[i])
        w_r = u_r + noise_r(j_r, u[i + 1])
        j_l = tile_l(u[i + 2])
        w_l = u_l + noise_l(j_l, u[i + 3])
        v, omega = wheel_to_body(params, w_r, w_l)
        x1, y1, theta1 = integrate_body(x, y, theta, v, omega, dt)
        history = history + ((action, j_r, j_l),)
        yield Stage(x, y, theta, w_r, w_l, v, omega, dt, x1, y1, theta1), history
        x, y, theta = x1, y1, theta1


def simulate_true_system(policy: Policy, env: Environment, spec: SequentialSpec,
                         params: VehicleParams, nm: NoiseModel, horizon: int,
                         rng: np.random.Generator) -> tuple[Trajectory, HistoryKey, bool]:
    """One whole-horizon closed-loop run of the continuous vehicle under the
    strategy: the trajectory, its measurement history, and the verdict of its
    whole trace.

    Validation decides its episodes stage by stage instead
    (``_TrueSystemTask``), with the same verdicts; this form serves the
    trajectory export and the tests.
    """
    history: HistoryKey = EMPTY_HISTORY
    stages = []
    for stage, history in _closed_loop_stages(policy, env, params, nm, horizon, rng):
        stages.append(stage)
    traj = Trajectory(tuple(stages))
    trace = trace_from_trajectory(traj, env)
    return traj, history, check_sequential(trace, spec)


def validate_true_system(policy: Policy, env: Environment, formula: Formula,
                         params: VehicleParams, nm: NoiseModel,
                         algorithm: AlgorithmParams, *, master_seed: int,
                         workers: int = 1) -> BieResult:
    """Estimate the closed-loop success probability of the real vehicle, with
    the algorithm's estimation parameters.

    A draw holds the algorithm's ``batch_size`` episodes, so the worker set
    has at most that many workers: any more would get none of them.
    """
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)
    task = _TrueSystemTask(env, spec, params, nm, policy, horizon, master_seed)
    with _worker_set(task, min(workers, algorithm.batch_size)) as pool:
        def draw(start: int, count: int) -> list[bool]:
            return _map_episodes(pool, range(start, start + count))

        return bie_estimate(draw, algorithm.delta, algorithm.confidence,
                            algorithm.prior_alpha, algorithm.prior_beta,
                            batch_size=algorithm.batch_size)


def theorem_bound_holds(p_chain: float, p_system: float, delta: float) -> bool:
    """Validation check: the system estimate is not below the chain estimate
    by more than the two intervals' combined slack."""
    return p_system >= p_chain - 2.0 * delta
