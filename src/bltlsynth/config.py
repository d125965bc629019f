"""Run configuration: loading, validation, resolution, and hashing.

A run config is one JSON document naming the environment file, the mission
formula, the vehicle and noise parameters, and the algorithm parameters.  The
resolved form inlines the environment document so a single hash pins down
everything that determines the results (the worker count deliberately does
not participate: it must not change any output).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .bltl import Formula, atoms_of, parse_formula
from .dynamics import NoiseModel, VehicleParams, WheelNoise
from .env import Environment, environment_from_dict


@dataclass(frozen=True)
class AlgorithmParams:
    episodes_per_round: int
    greediness: float
    history_weight: float
    delta: float
    confidence: float
    prior_alpha: float
    prior_beta: float
    stop_radius: float
    max_rounds: int
    batch_size: int

    def __post_init__(self):
        if self.episodes_per_round < 1:
            raise ValueError("episodes_per_round must be at least 1")
        if not 0.0 < self.greediness < 1.0:
            raise ValueError("greediness out of (0, 1)")
        if not 0.0 < self.history_weight < 1.0:
            raise ValueError("history_weight out of (0, 1)")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta out of (0, ½)")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError("confidence out of (½, 1)")
        if self.prior_alpha <= 0 or self.prior_beta <= 0:
            raise ValueError("prior coefficients must be positive")
        if not 0.0 < self.stop_radius < 1.0:
            raise ValueError("stop_radius out of (0, 1)")
        if self.max_rounds < 2:
            raise ValueError("max_rounds must be at least 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    env: Environment
    env_doc: dict
    formula: Formula
    formula_text: str
    params: VehicleParams
    nm: NoiseModel
    algorithm: AlgorithmParams
    seed: int
    workers: int

    def resolved_dict(self) -> dict:
        """Canonical content that determines every result byte."""
        return {
            "environment": self.env_doc,
            "formula": self.formula_text,
            "vehicle": {
                "wheel_radius": self.params.wheel_radius,
                "wheel_separation": self.params.wheel_separation,
                "dt": self.params.dt,
                "actions": [list(a) for a in self.params.actions],
            },
            "noise": {
                side: {
                    "eps_min": wn.eps_min,
                    "delta": wn.delta,
                    "n": wn.n,
                    "probs": list(wn.probs),
                }
                for side, wn in (("right", self.nm.right), ("left", self.nm.left))
            },
            "algorithm": {
                "episodes_per_round": self.algorithm.episodes_per_round,
                "greediness": self.algorithm.greediness,
                "history_weight": self.algorithm.history_weight,
                "delta": self.algorithm.delta,
                "confidence": self.algorithm.confidence,
                "prior_alpha": self.algorithm.prior_alpha,
                "prior_beta": self.algorithm.prior_beta,
                "stop_radius": self.algorithm.stop_radius,
                "max_rounds": self.algorithm.max_rounds,
                "batch_size": self.algorithm.batch_size,
            },
            "seed": self.seed,
        }

    def content_hash(self) -> str:
        canon = json.dumps(self.resolved_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# Keys a config may hold, per section; anything else is a mistake to report.
_TOP_KEYS = frozenset({"environment", "formula", "vehicle", "noise", "algorithm",
                       "seed", "workers"})
_VEHICLE_KEYS = frozenset(f.name for f in fields(VehicleParams))
_NOISE_KEYS = frozenset({"right", "left"})
_WHEEL_KEYS = frozenset(f.name for f in fields(WheelNoise) if f.init)
_ALGORITHM_KEYS = frozenset(f.name for f in fields(AlgorithmParams))


def _reject_unknown_keys(section: dict, known: frozenset, where: str) -> None:
    """Raise ValueError naming every key of ``section`` not in ``known``.

    ``where`` is the section's dotted prefix ("" at the top level).
    """
    if not isinstance(section, dict):
        raise ValueError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(set(section) - known)
    if "detection_divisor" in unknown:
        raise ValueError(f"config key {where}detection_divisor was removed: trace "
                         "event times are exact, with no detection grid; delete it")
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(where + k for k in unknown))


def _integer(value, key: str) -> int:
    """An integer config value; a boolean or a non-integral number is an error
    naming the key, where ``int`` would read it as 1 or 0 or truncate it."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"config key {key} must be an integer, not {value!r}")
    return int(value)


def _wheel_noise_from_dict(doc: dict, side: str) -> WheelNoise:
    _reject_unknown_keys(doc, _WHEEL_KEYS, f"noise.{side}.")
    try:
        return WheelNoise(eps_min=float(doc["eps_min"]), delta=float(doc["delta"]),
                          n=_integer(doc["n"], f"noise.{side}.n"),
                          probs=tuple(float(p) for p in doc["probs"]))
    except KeyError as exc:
        raise ValueError(f"noise.{side} is missing field {exc}") from exc


def config_from_dict(doc: dict, base_dir: Optional[Path] = None,
                     env_doc: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig from a parsed document.

    ``environment`` may be a path (resolved against base_dir) or an inline
    object; ``env_doc`` overrides both when given.  Unknown keys in the
    document and in its vehicle, noise and algorithm sections are rejected.
    """
    _reject_unknown_keys(doc, _TOP_KEYS, "")
    try:
        env_field = doc["environment"]
        formula_text = str(doc["formula"])
        veh = doc["vehicle"]
        noise = doc["noise"]
        alg = doc["algorithm"]
        seed = _integer(doc["seed"], "seed")
    except KeyError as exc:
        raise ValueError(f"config is missing field {exc}") from exc
    workers = _integer(doc.get("workers", 1), "workers")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    if env_doc is None:
        if isinstance(env_field, dict):
            env_doc = env_field
        else:
            path = Path(env_field)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            env_doc = json.loads(path.read_text())
    env = environment_from_dict(env_doc)

    _reject_unknown_keys(veh, _VEHICLE_KEYS, "vehicle.")
    _reject_unknown_keys(noise, _NOISE_KEYS, "noise.")
    _reject_unknown_keys(alg, _ALGORITHM_KEYS, "algorithm.")
    try:
        params = VehicleParams(
            wheel_radius=float(veh["wheel_radius"]),
            wheel_separation=float(veh["wheel_separation"]),
            dt=float(veh["dt"]),
            actions=tuple((float(a[0]), float(a[1])) for a in veh["actions"]),
        )
    except KeyError as exc:
        raise ValueError(f"vehicle is missing field {exc}") from exc
    try:
        right, left = noise["right"], noise["left"]
    except KeyError as exc:
        raise ValueError(f"noise is missing side {exc}") from exc
    nm = NoiseModel(right=_wheel_noise_from_dict(right, "right"),
                    left=_wheel_noise_from_dict(left, "left"))

    try:
        algorithm = AlgorithmParams(
            episodes_per_round=_integer(alg["episodes_per_round"],
                                        "algorithm.episodes_per_round"),
            greediness=float(alg["greediness"]),
            history_weight=float(alg["history_weight"]),
            delta=float(alg["delta"]),
            confidence=float(alg["confidence"]),
            prior_alpha=float(alg["prior_alpha"]),
            prior_beta=float(alg["prior_beta"]),
            stop_radius=float(alg["stop_radius"]),
            max_rounds=_integer(alg.get("max_rounds", 50), "algorithm.max_rounds"),
            batch_size=_integer(alg.get("batch_size", 1), "algorithm.batch_size"),
        )
    except KeyError as exc:
        raise ValueError(f"algorithm is missing field {exc}") from exc

    formula = parse_formula(formula_text)
    unknown = atoms_of(formula) - env.propositions
    if unknown:
        raise ValueError(f"formula uses propositions not in the environment: "
                         f"{sorted(unknown)}")
    return RunConfig(env=env, env_doc=env_doc, formula=formula,
                     formula_text=formula_text, params=params, nm=nm,
                     algorithm=algorithm, seed=seed, workers=workers)


def load_config(path: Path, seed_override: Optional[int] = None,
                workers_override: Optional[int] = None) -> RunConfig:
    """Load a run config file, optionally overriding seed or worker count."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    if workers_override is not None:
        doc["workers"] = workers_override
    return config_from_dict(doc, base_dir=Path(path).resolve().parent)


def builtin_config_path() -> Path:
    """Path of the bundled demonstration mission config."""
    return Path(__file__).resolve().parent / "data" / "demo_mission.json"
