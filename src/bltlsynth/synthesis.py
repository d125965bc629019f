"""Sampling-based policy synthesis, Bayesian estimation, and validation.

The loop alternates policy evaluation (Monte-Carlo estimates of how likely
each visited state-action pair is to end in a satisfying trace), a convex
reinforcement step toward each state's best action, determinization, and a
Bayesian interval estimate of the deterministic policy's success probability.
It stops when consecutive round estimates agree to within a radius.

Policies and Q estimates share one layout: an index from measurement history
to row, and arrays with one row per indexed history and one column per
action.  Each step is one array operation over all rows: smoothing the
estimates, the convex step toward each row's argmax, and determinization.

The resulting deterministic policy doubles as the vehicle control strategy:
fed the measurement history (``Policy.best_action``), it returns the next
wheel-speed command, and the continuous closed-loop system can be simulated
against it to validate that the real success probability is not below the
estimate from the chain.  A validation episode simulates, traces and checks
the closed loop one stage at a time, through the same trace walk and mission
monitor as a chain episode (``mdp.decide_tube`` at radius 0), and stops at
the stage that fixes its verdict; ``simulate_true_system`` is the
whole-horizon form.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import betainc

from .bltl import (Formula, SequentialMonitor, SequentialSpec, check_sequential,
                   horizon_stages, to_sequential)
from .dynamics import (NoiseModel, VehicleParams, sample_noise_in_interval,
                       sample_noise_interval)
from .env import Environment
from .mdp import (EMPTY_HISTORY, HistoryKey, PathSampler, STREAM_BIE,
                  STREAM_POLICY_EVAL, STREAM_VALIDATE, decide_tube, episode_rng)
from .tracegen import (Stage, TraceWalk, Trajectory, make_stage, point_rules, stage_feed,
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
    horizon action.  An index is never changed once a policy or table holds
    it, so they may share one.
    """

    n_actions: int
    index: dict[HistoryKey, int]
    probs: Optional[np.ndarray] = None
    actions: Optional[list[int]] = None

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
        row = [1.0 / self.n_actions] * self.n_actions if i is None else self.probs[i].tolist()
        cdf = list(accumulate(row))
        total = cdf[-1]
        return bisect_right([c / total for c in cdf], u)


def uniform_policy(n_actions: int) -> Policy:
    return Policy(n_actions, {}, probs=np.empty((0, n_actions)))


@dataclass
class QTable:
    """Per visited history, a row of estimated satisfaction probabilities and
    visit counts over the actions.

    ``index`` maps a history to its row of the S×A arrays ``estimate`` and
    ``visits``.  An unvisited pair has 0 visits and estimate -inf, so an
    argmax over a row never picks it.
    """

    index: dict[HistoryKey, int] = field(default_factory=dict)
    estimate: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    visits: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.int64))

    @property
    def q_pairs(self) -> int:
        """Number of state-action pairs visited so far."""
        return int(np.count_nonzero(self.visits))

    def merged(self, index: dict[HistoryKey, int], sat: np.ndarray, visits: np.ndarray,
               history_weight: float) -> "QTable":
        """Fold fresh per-round counts into a new table.

        ``index`` extends this table's index with the round's new histories;
        ``sat`` and ``visits`` count satisfying and all visits per pair of its
        rows.  Pairs seen before take the convex combination
        h*old + (1-h)*fresh; first-time pairs take the fresh ratio; untouched
        pairs carry over.
        """
        h = history_weight
        old = np.full(visits.shape, -np.inf)
        seen = np.zeros(visits.shape, dtype=np.int64)
        if self.index:
            old[:len(self.index)] = self.estimate
            seen[:len(self.index)] = self.visits
        fresh = sat / np.maximum(visits, 1)
        blended = np.where(seen == 0, fresh, h * old + (1.0 - h) * fresh)
        return QTable(index, np.where(visits == 0, old, blended), seen + visits)


# ---------------------------------------------------------------------------
# Episode execution (shared by evaluation, estimation, and validation)

@dataclass(frozen=True)
class _ChainTask:
    """Chain episodes under a policy on one seed stream: (history, verdict)."""

    sampler: PathSampler
    policy: Policy
    master_seed: int
    stream: int
    round_index: int

    def run(self, index: int) -> tuple[HistoryKey, bool]:
        rng = episode_rng(self.master_seed, self.stream, self.round_index, index)
        history = self.sampler.sample_history(self.policy, rng)
        return history, self.sampler.decide(history)[0]


@dataclass(frozen=True)
class _TrueSystemTask:
    """Closed-loop validation episodes under the strategy: verdicts.

    An episode's stages are simulated one at a time and fed, at radius 0,
    through the point-trace walk into the mission monitor; simulation stops
    at the stage that fixes the verdict (under the pinned seed-2026
    benchmark policy, after 4.19 of 9 stages on average).  The verdict
    equals that of ``simulate_true_system`` on the same episode generator.
    """

    env: Environment
    spec: SequentialSpec
    params: VehicleParams
    nm: NoiseModel
    policy: Policy
    horizon: int
    master_seed: int
    rules: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", point_rules(self.env))

    def decide(self, index: int) -> tuple[bool, int]:
        """Verdict of episode ``index``, and the stages simulated to fix it."""
        rng = episode_rng(self.master_seed, STREAM_VALIDATE, 0, index)
        stages = _closed_loop_stages(self.policy, self.env, self.params, self.nm,
                                     self.horizon, rng)
        return decide_tube(TraceWalk(self.rules, self.env.unsafe), SequentialMonitor(self.spec),
                           stage_feed(self.rules, ((stage, 0.0) for stage, _ in stages)))

    def run(self, index: int) -> bool:
        return self.decide(index)[0]


# The task a pool worker runs, set once per worker by the pool's initializer.
_WORKER_TASK = None


def _install_task(task) -> None:
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_chunk(indices):
    return [_WORKER_TASK.run(i) for i in indices]


def _pool_workers(workers: int) -> int:
    """The requested worker count capped at the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


@contextmanager
def _episode_pool(task, workers: int) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A process pool whose workers hold the task, or None when serial.

    The pool has ``_pool_workers(workers)`` workers.  The task reaches each
    worker once, through the pool's initializer: a forked worker inherits it,
    a spawned one unpickles it.  Afterwards only episode indices are sent.
    Workers start on the first submitted chunk.
    """
    workers = _pool_workers(workers)
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_install_task,
                             initargs=(task,)) as pool:
        yield pool


def _map_episodes(task, indices: Sequence[int], workers: int,
                  pool: Optional[ProcessPoolExecutor]) -> list:
    """Run task.run over episode indices, across the pool's workers if any.

    The pool must come from ``_episode_pool(task, workers)``.  Results come
    back in index order, so the outcome is independent of the worker count.
    """
    if pool is None or len(indices) < 2:
        return [task.run(i) for i in indices]
    chunks = [list(c) for c in np.array_split(np.asarray(indices),
                                               min(_pool_workers(workers), len(indices)))]
    out: list = []
    for part in pool.map(_run_chunk, chunks):
        out.extend(part)
    return out


# ---------------------------------------------------------------------------
# Policy evaluation / improvement / determinization

def evaluate_policy(policy: Policy, n_episodes: int, qtable: QTable,
                    sampler: PathSampler, *, history_weight: float,
                    master_seed: int, round_index: int = 0,
                    workers: int = 1) -> tuple[QTable, int]:
    """Sample paths under the policy and refresh the Q estimates.

    Every (state, action) pair along a path is credited with the path's
    verdict; per-pair ratios are folded into the table with the history
    weight.  New histories get rows after the table's, in the order the
    episodes first reach them.  Returns the new table and the number of
    satisfying paths.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if not 0.0 < history_weight < 1.0:
        raise ValueError("history weight must lie in (0, 1)")
    task = _ChainTask(sampler, policy, master_seed, STREAM_POLICY_EVAL, round_index)
    with _episode_pool(task, workers) as pool:
        results = _map_episodes(task, range(n_episodes), workers, pool)
    index = dict(qtable.index)
    rows: list[int] = []
    cols: list[int] = []
    verdicts: list[bool] = []
    for history, satisfied in results:
        for k, step in enumerate(history):
            rows.append(index.setdefault(history[:k], len(index)))
            cols.append(step[0])
            verdicts.append(satisfied)
    sat = np.zeros((len(index), policy.n_actions), dtype=np.int64)
    visits = np.zeros_like(sat)
    np.add.at(sat, (rows, cols), verdicts)
    np.add.at(visits, (rows, cols), 1)
    n_sat = sum(satisfied for _, satisfied in results)
    return qtable.merged(index, sat, visits, history_weight), n_sat


def improve_policy(policy: Policy, qtable: QTable, greediness: float) -> Policy:
    """Shift each visited state's distribution toward its best-rated action.

    New row = (1-g) * old row + g * indicator(argmax estimate); ties break to
    the lowest action index.  The policy's rows must be the first rows of the
    table (as ``evaluate_policy`` leaves them); the table's other rows start
    from the uniform distribution.
    """
    if not 0.0 < greediness < 1.0:
        raise ValueError("greediness must lie in (0, 1)")
    if any(qtable.index.get(state) != i for state, i in policy.index.items()):
        raise ValueError("the policy's rows are not the first rows of the table")
    g = greediness
    probs = np.full(qtable.estimate.shape, 1.0 / policy.n_actions)
    probs[:len(policy.index)] = policy.probs
    probs *= 1.0 - g
    probs[np.arange(len(probs)), qtable.estimate.argmax(axis=1)] += g
    return Policy(policy.n_actions, qtable.index, probs=probs)


def determinize(policy: Policy) -> Policy:
    """Deterministic argmax policy of a stochastic one (ties to the lowest action)."""
    return Policy(policy.n_actions, policy.index,
                  actions=policy.probs.argmax(axis=1).tolist())


# ---------------------------------------------------------------------------
# Bayesian interval estimation

@dataclass(frozen=True)
class BieResult:
    """Posterior-mean estimate with its half-width-delta credible interval."""

    p_hat: float
    n: int
    successes: int
    lo: float
    hi: float
    coverage: float


def posterior_interval_coverage(x: int, n: int, alpha: float, beta: float,
                                delta: float) -> tuple[float, float, float, float]:
    """Posterior mean and the Beta mass on [mean-delta, mean+delta] in [0, 1]."""
    p_hat = (x + alpha) / (n + alpha + beta)
    lo = max(0.0, p_hat - delta)
    hi = min(1.0, p_hat + delta)
    a, b = x + alpha, n - x + beta
    coverage = float(betainc(a, b, hi) - betainc(a, b, lo))
    return p_hat, lo, hi, coverage


def bie_estimate(draw: Callable[[int, int], Sequence[bool]], delta: float,
                 confidence: float, alpha: float, beta: float,
                 batch_size: int = 1,
                 max_samples: Optional[int] = None) -> BieResult:
    """Sample Bernoulli verdicts until the posterior concentrates.

    ``draw(start, count)`` returns ``count`` verdicts for episode indices
    ``start..start+count-1``.  After each batch the Beta(x+alpha, n-x+beta)
    posterior mass on the clipped interval [p_hat-delta, p_hat+delta] is
    evaluated; sampling stops once it reaches the confidence level.  The
    sample count is batch-granular; batch size 1 is the exact sequential
    procedure.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if not 0.5 < confidence < 1.0:
        raise ValueError("confidence must lie in (1/2, 1)")
    if alpha <= 0 or beta <= 0:
        raise ValueError("prior coefficients must be positive")
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
        p_hat, lo, hi, coverage = posterior_interval_coverage(x, n, alpha, beta, delta)
        if coverage >= confidence:
            return BieResult(p_hat, n, x, lo, hi, coverage)
        if max_samples is not None and n >= max_samples:
            raise RuntimeError(f"estimation did not converge within {max_samples} samples")


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
               nm: NoiseModel, *, episodes_per_round: int, greediness: float,
               history_weight: float, delta: float, confidence: float,
               prior_alpha: float, prior_beta: float, stop_radius: float,
               master_seed: int, max_rounds: int = 50, batch_size: int = 1,
               workers: int = 1) -> SynthesisResult:
    """Iterate evaluation, improvement, and estimation until estimates settle.

    The loop always runs at least two rounds and stops when consecutive
    deterministic-policy estimates differ by at most the stop radius; if
    max_rounds pass without that happening the result is flagged as not
    converged.
    """
    if not 0.0 < stop_radius < 1.0:
        raise ValueError("stop radius must lie in (0, 1)")
    if max_rounds < 2:
        raise ValueError("need at least two rounds")
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)
    sampler = PathSampler(env, spec, params, nm, horizon)

    policy = uniform_policy(len(params.actions))
    qtable = QTable()
    rounds: list[RoundRecord] = []
    prev_estimate: Optional[float] = None
    estimate: Optional[BieResult] = None
    converged = False

    for round_index in range(1, max_rounds + 1):
        qtable, n_sat = evaluate_policy(
            policy, episodes_per_round, qtable, sampler,
            history_weight=history_weight, master_seed=master_seed,
            round_index=round_index, workers=workers)
        policy = improve_policy(policy, qtable, greediness)
        det = determinize(policy)

        task = _ChainTask(sampler, det, master_seed, STREAM_BIE, round_index)
        with _episode_pool(task, workers) as pool:
            def draw(start: int, count: int) -> list[bool]:
                episodes = _map_episodes(task, range(start, start + count), workers, pool)
                return [satisfied for _, satisfied in episodes]

            estimate = bie_estimate(draw, delta, confidence, prior_alpha, prior_beta,
                                    batch_size=batch_size)
        change = (None if prev_estimate is None
                  else abs(estimate.p_hat - prev_estimate))
        rounds.append(RoundRecord(
            round_index=round_index, eval_satisfied=n_sat,
            eval_episodes=episodes_per_round, p_hat=estimate.p_hat,
            n=estimate.n, successes=estimate.successes,
            coverage=estimate.coverage, change_from_previous=change,
            q_pairs=qtable.q_pairs, policy_states=len(det.index)))
        if change is not None and change <= stop_radius:
            converged = True
            break
        prev_estimate = estimate.p_hat

    assert estimate is not None
    return SynthesisResult(policy=det, estimate=estimate, rounds=rounds,
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
    integrate the exact kinematics, and append the encoder reading.  The
    episode's uniforms are one draw up front, in the order of four scalar
    draws per stage, so the stream is the same however many stages are taken.
    """
    pose = env.initial_pose
    history: HistoryKey = EMPTY_HISTORY
    u = rng.random(4 * horizon).tolist()
    for i in range(0, 4 * horizon, 4):
        action = policy.best_action(history)
        u_r, u_l = params.actions[action]
        j_r = sample_noise_interval(nm, "r", u[i])
        eps_r = sample_noise_in_interval(nm, "r", j_r, u[i + 1])
        j_l = sample_noise_interval(nm, "l", u[i + 2])
        eps_l = sample_noise_in_interval(nm, "l", j_l, u[i + 3])
        stage = make_stage(params, pose, u_r + eps_r, u_l + eps_l, params.dt)
        pose = stage.end
        history = history + ((action, j_r, j_l),)
        yield stage, history


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
                         params: VehicleParams, nm: NoiseModel, *, delta: float,
                         confidence: float, prior_alpha: float, prior_beta: float,
                         master_seed: int, batch_size: int = 1, workers: int = 1
                         ) -> BieResult:
    """Estimate the closed-loop success probability of the real vehicle."""
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)
    task = _TrueSystemTask(env, spec, params, nm, policy, horizon, master_seed)
    with _episode_pool(task, workers) as pool:
        def draw(start: int, count: int) -> list[bool]:
            return _map_episodes(task, range(start, start + count), workers, pool)

        return bie_estimate(draw, delta, confidence, prior_alpha, prior_beta,
                            batch_size=batch_size)


def theorem_bound_holds(p_chain: float, p_system: float, delta: float) -> bool:
    """Validation check: the system estimate is not below the chain estimate
    by more than the two intervals' combined slack."""
    return p_system >= p_chain - 2.0 * delta
