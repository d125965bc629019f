"""Sampling-based policy synthesis, Bayesian estimation, and validation.

The loop alternates policy evaluation (Monte-Carlo estimates of how likely
each visited state-action pair is to end in a satisfying trace), a convex
reinforcement step toward each state's best action, determinization, and a
Bayesian interval estimate of the deterministic policy's success probability.
It stops when consecutive round estimates agree to within a radius.

The resulting deterministic policy doubles as the vehicle control strategy:
fed the measurement history, it returns the next wheel-speed command, and the
continuous closed-loop system can be simulated against it to validate that
the real success probability is not below the estimate from the chain.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np
from scipy.special import betainc

from .bltl import Formula, SequentialSpec, check_sequential, horizon_stages, to_sequential
from .dynamics import (NoiseModel, VehicleParams, sample_noise_in_interval,
                       sample_noise_interval)
from .env import Environment
from .mdp import (EMPTY_HISTORY, HistoryKey, PathSampler, STREAM_BIE,
                  STREAM_POLICY_EVAL, STREAM_VALIDATE, episode_rng)
from .tracegen import (DEFAULT_DETECTION_DIVISOR, Trajectory, make_stage,
                       trace_from_trajectory)


# ---------------------------------------------------------------------------
# Policies

@dataclass
class Policy:
    """Distribution over action indices per measurement history.

    Unseen histories fall back to the default rule: uniform for stochastic
    policies, lowest action index for deterministic ones.  Rows never include
    the dummy horizon action.
    """

    n_actions: int
    rows: dict[HistoryKey, np.ndarray] = field(default_factory=dict)
    deterministic: bool = False

    def probs(self, state: HistoryKey) -> np.ndarray:
        row = self.rows.get(state)
        if row is not None:
            return row
        if self.deterministic:
            row = np.zeros(self.n_actions)
            row[0] = 1.0
            return row
        return np.full(self.n_actions, 1.0 / self.n_actions)

    def best_action(self, state: HistoryKey) -> int:
        return int(np.argmax(self.probs(state)))

    def sample_action(self, state: HistoryKey, rng: np.random.Generator) -> int:
        if self.deterministic:
            return self.best_action(state)
        return int(rng.choice(self.n_actions, p=self.probs(state)))

    def validate(self) -> None:
        for state, row in self.rows.items():
            if len(row) != self.n_actions:
                raise ValueError(f"policy row at {state!r} has wrong arity")
            if (row < 0).any() or abs(row.sum() - 1.0) > 1e-9:
                raise ValueError(f"policy row at {state!r} is not a distribution")


def uniform_policy(n_actions: int) -> Policy:
    return Policy(n_actions=n_actions)


# ---------------------------------------------------------------------------
# Q estimates

@dataclass
class QEntry:
    estimate: float
    visits: int


@dataclass
class QTable:
    """Per state-action pair: estimated satisfaction probability and visits."""

    entries: dict[tuple[HistoryKey, int], QEntry] = field(default_factory=dict)

    def states(self) -> list[HistoryKey]:
        return sorted({s for s, _ in self.entries}, key=lambda s: (len(s), s))

    def estimate(self, state: HistoryKey, action: int) -> Optional[float]:
        e = self.entries.get((state, action))
        return None if e is None else e.estimate

    def merged(self, counts: dict[tuple[HistoryKey, int], tuple[int, int]],
               history_weight: float) -> "QTable":
        """Fold fresh per-round counts into a new table.

        Pairs seen before take the convex combination h*old + (1-h)*fresh;
        first-time pairs take the fresh ratio; untouched pairs carry over.
        """
        h = history_weight
        out = {k: QEntry(v.estimate, v.visits) for k, v in self.entries.items()}
        for key, (sat, visits) in counts.items():
            fresh = sat / visits
            prev = out.get(key)
            if prev is None:
                out[key] = QEntry(fresh, visits)
            else:
                out[key] = QEntry(h * prev.estimate + (1.0 - h) * fresh,
                                  prev.visits + visits)
        return QTable(out)


# ---------------------------------------------------------------------------
# Episode execution (shared by evaluation, estimation, and validation)

@dataclass(frozen=True)
class _EvalTask:
    sampler: PathSampler
    policy: Policy
    master_seed: int
    round_index: int

    def run(self, index: int) -> tuple[HistoryKey, bool]:
        rng = episode_rng(self.master_seed, STREAM_POLICY_EVAL, self.round_index, index)
        path = self.sampler.sample_path(self.policy, rng)
        return path.state, path.satisfied


@dataclass(frozen=True)
class _ChainVerdictTask:
    sampler: PathSampler
    policy: Policy
    master_seed: int
    round_index: int

    def run(self, index: int) -> bool:
        rng = episode_rng(self.master_seed, STREAM_BIE, self.round_index, index)
        return self.sampler.sample_path(self.policy, rng).satisfied


@dataclass(frozen=True)
class _TrueSystemTask:
    env: Environment
    spec: SequentialSpec
    params: VehicleParams
    nm: NoiseModel
    policy: Policy
    horizon: int
    detection_divisor: int
    master_seed: int

    def run(self, index: int) -> bool:
        rng = episode_rng(self.master_seed, STREAM_VALIDATE, 0, index)
        return simulate_true_system(self.policy, self.env, self.spec, self.params,
                                    self.nm, self.horizon, rng,
                                    self.detection_divisor)[2]


# The task a pool worker runs, set once per worker by the pool's initializer.
_WORKER_TASK = None


def _install_task(task) -> None:
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_chunk(indices):
    return [_WORKER_TASK.run(i) for i in indices]


@contextmanager
def _episode_pool(task, workers: int) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A process pool whose workers hold the task, or None when serial.

    The task reaches each worker once, through the pool's initializer: a
    forked worker inherits it, a spawned one unpickles it.  Afterwards only
    episode indices are sent.  Workers start on the first submitted chunk.
    """
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
                                               min(workers, len(indices)))]
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
    weight.  Returns the new table and the number of satisfying paths.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if not 0.0 < history_weight < 1.0:
        raise ValueError("history weight must lie in (0, 1)")
    task = _EvalTask(sampler, policy, master_seed, round_index)
    with _episode_pool(task, workers) as pool:
        results = _map_episodes(task, range(n_episodes), workers, pool)
    counts: dict[tuple[HistoryKey, int], list[int]] = {}
    n_sat = 0
    for history, satisfied in results:
        n_sat += satisfied
        for k, step in enumerate(history):
            pair = (history[:k], step[0])
            cell = counts.setdefault(pair, [0, 0])
            cell[0] += satisfied
            cell[1] += 1
    merged = qtable.merged({k: (s, v) for k, (s, v) in counts.items()}, history_weight)
    return merged, n_sat


def improve_policy(policy: Policy, qtable: QTable, greediness: float) -> Policy:
    """Shift each visited state's distribution toward its best-rated action.

    New row = (1-g) * old row + g * indicator(argmax estimate); ties break to
    the lowest action index; states absent from the table are left alone.
    """
    if not 0.0 < greediness < 1.0:
        raise ValueError("greediness must lie in (0, 1)")
    g = greediness
    by_state: dict[HistoryKey, dict[int, float]] = {}
    for (state, action), entry in qtable.entries.items():
        by_state.setdefault(state, {})[action] = entry.estimate
    rows = {s: row.copy() for s, row in policy.rows.items()}
    for state, ests in by_state.items():
        best = min((a for a in ests), key=lambda a: (-ests[a], a))
        base = policy.probs(state)
        row = (1.0 - g) * base
        row[best] += g
        rows[state] = row
    return Policy(n_actions=policy.n_actions, rows=rows, deterministic=False)


def determinize(source: Union[Policy, QTable], n_actions: Optional[int] = None) -> Policy:
    """Deterministic argmax policy from a stochastic policy or a Q table."""
    if isinstance(source, Policy):
        rows = {}
        for state, row in source.rows.items():
            one_hot = np.zeros(source.n_actions)
            one_hot[int(np.argmax(row))] = 1.0
            rows[state] = one_hot
        return Policy(n_actions=source.n_actions, rows=rows, deterministic=True)
    if n_actions is None:
        raise ValueError("n_actions is required when determinizing a QTable")
    by_state: dict[HistoryKey, dict[int, float]] = {}
    for (state, action), entry in source.entries.items():
        by_state.setdefault(state, {})[action] = entry.estimate
    rows = {}
    for state, ests in by_state.items():
        best = min((a for a in ests), key=lambda a: (-ests[a], a))
        one_hot = np.zeros(n_actions)
        one_hot[best] = 1.0
        rows[state] = one_hot
    return Policy(n_actions=n_actions, rows=rows, deterministic=True)


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
               workers: int = 1,
               detection_divisor: int = DEFAULT_DETECTION_DIVISOR) -> SynthesisResult:
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
    sampler = PathSampler(env, spec, params, nm, horizon, detection_divisor)

    policy = uniform_policy(len(params.actions))
    qtable = QTable()
    rounds: list[RoundRecord] = []
    prev_estimate: Optional[float] = None
    det = determinize(policy)
    estimate: Optional[BieResult] = None
    converged = False

    for round_index in range(1, max_rounds + 1):
        qtable, n_sat = evaluate_policy(
            policy, episodes_per_round, qtable, sampler,
            history_weight=history_weight, master_seed=master_seed,
            round_index=round_index, workers=workers)
        policy = improve_policy(policy, qtable, greediness)
        det = determinize(policy)

        task = _ChainVerdictTask(sampler, det, master_seed, round_index)
        with _episode_pool(task, workers) as pool:
            def draw(start: int, count: int) -> list[bool]:
                return _map_episodes(task, range(start, start + count), workers, pool)

            estimate = bie_estimate(draw, delta, confidence, prior_alpha, prior_beta,
                                    batch_size=batch_size)
        change = (None if prev_estimate is None
                  else abs(estimate.p_hat - prev_estimate))
        rounds.append(RoundRecord(
            round_index=round_index, eval_satisfied=n_sat,
            eval_episodes=episodes_per_round, p_hat=estimate.p_hat,
            n=estimate.n, successes=estimate.successes,
            coverage=estimate.coverage, change_from_previous=change,
            q_pairs=len(qtable.entries), policy_states=len(det.rows)))
        if change is not None and change <= stop_radius:
            converged = True
            break
        prev_estimate = estimate.p_hat

    assert estimate is not None
    return SynthesisResult(policy=det, estimate=estimate, rounds=rounds,
                           converged=converged, horizon=horizon, qtable=qtable)


# ---------------------------------------------------------------------------
# Vehicle control strategy and continuous-system validation

def control_strategy_action(policy: Policy, history: HistoryKey) -> int:
    """Next commanded action for a measurement history (default on unseen)."""
    return policy.best_action(history)


def simulate_true_system(policy: Policy, env: Environment, spec: SequentialSpec,
                         params: VehicleParams, nm: NoiseModel, horizon: int,
                         rng: np.random.Generator,
                         detection_divisor: int = DEFAULT_DETECTION_DIVISOR
                         ) -> tuple[Trajectory, HistoryKey, bool]:
    """One closed-loop run of the continuous vehicle under the strategy.

    Per stage: look up the action for the history so far, draw each wheel's
    noise (tile by its probability, position uniformly within the tile),
    integrate the exact kinematics, and append the encoder reading.  The
    verdict comes from the concrete trajectory's trace.
    """
    pose = env.initial_pose
    history: HistoryKey = EMPTY_HISTORY
    stages = []
    for _ in range(horizon):
        action = control_strategy_action(policy, history)
        u_r, u_l = params.actions[action]
        j_r = sample_noise_interval(nm, "r", rng.random())
        eps_r = sample_noise_in_interval(nm, "r", j_r, rng.random())
        j_l = sample_noise_interval(nm, "l", rng.random())
        eps_l = sample_noise_in_interval(nm, "l", j_l, rng.random())
        stage = make_stage(params, pose, u_r + eps_r, u_l + eps_l, params.dt)
        stages.append(stage)
        pose = stage.end
        history = history + ((action, j_r, j_l),)
    traj = Trajectory(tuple(stages))
    trace = trace_from_trajectory(traj, env, detection_divisor)
    return traj, history, check_sequential(trace, spec)


def validate_true_system(policy: Policy, env: Environment, formula: Formula,
                         params: VehicleParams, nm: NoiseModel, *, delta: float,
                         confidence: float, prior_alpha: float, prior_beta: float,
                         master_seed: int, batch_size: int = 1, workers: int = 1,
                         detection_divisor: int = DEFAULT_DETECTION_DIVISOR
                         ) -> BieResult:
    """Estimate the closed-loop success probability of the real vehicle."""
    spec = to_sequential(formula, env.unsafe)
    horizon = horizon_stages(formula, params.dt)
    task = _TrueSystemTask(env, spec, params, nm, policy, horizon,
                           detection_divisor, master_seed)
    with _episode_pool(task, workers) as pool:
        def draw(start: int, count: int) -> list[bool]:
            return _map_episodes(task, range(start, start + count), workers, pool)

        return bie_estimate(draw, delta, confidence, prior_alpha, prior_beta,
                            batch_size=batch_size)


def theorem_bound_holds(p_chain: float, p_system: float, delta: float) -> bool:
    """Validation check: the system estimate is not below the chain estimate
    by more than the two intervals' combined slack."""
    return p_system >= p_chain - 2.0 * delta
