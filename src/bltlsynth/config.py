"""Run configuration: loading, validation, resolution, and hashing.

A run config is one JSON document naming the environment file, the mission
formula, the vehicle and noise parameters, and the algorithm parameters.  The
vehicle, noise and algorithm sections are read field by field from the
dataclasses they fill (``VehicleParams``, ``WheelNoise`` per side,
``AlgorithmParams``): a field's annotation picks its reader, and a field with
a dataclass default may be omitted.  Every number, the environment
document's (``environment_from_dict``) included, is a finite JSON number;
NaN, ±Infinity, booleans and strings are errors that name the key, as is a
text field (formula, label, id, proposition) that is not a JSON string.  The
resolved form inlines the environment document so a single hash pins down
everything that determines the results (the worker count deliberately does
not participate: it must not change any output).
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from .bltl import Formula, atoms_of, parse_formula
from .dynamics import NoiseModel, Pose, VehicleParams, WheelNoise
from .env import Environment, Rect, Region


@dataclass(frozen=True)
class AlgorithmParams:
    """The synthesis loop's and the Bayesian estimator's parameters."""

    episodes_per_round: int
    greediness: float
    history_weight: float
    delta: float
    confidence: float
    prior_alpha: float
    prior_beta: float
    stop_radius: float
    max_rounds: int = 50
    batch_size: int = 1

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
        if not (0.0 < self.prior_alpha < math.inf and 0.0 < self.prior_beta < math.inf):
            raise ValueError("prior coefficients must be positive and finite")
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
            "vehicle": asdict(self.params),
            "noise": {side: {f.name: getattr(wn, f.name) for f in fields(wn) if f.init}
                      for side, wn in (("right", self.nm.right), ("left", self.nm.left))},
            "algorithm": asdict(self.algorithm),
            "seed": self.seed,
        }

    def content_hash(self) -> str:
        canon = json.dumps(self.resolved_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# Keys a config may hold at the top level and in its noise section; the
# vehicle, wheel and algorithm sections hold the init fields of their classes.
_TOP_KEYS = frozenset({"environment", "formula", "vehicle", "noise", "algorithm",
                       "seed", "workers"})
_NOISE_KEYS = frozenset({"right", "left"})


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
    """An integer config value: an int, or a float with an integral value.
    Anything else is an error naming the key, where ``int`` would read a
    boolean as 1 or 0, truncate 2.5 and parse the string "3"."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"config key {key} must be an integer, not {value!r}")


def _real(value, key: str) -> float:
    """A real config value: a finite number that is not a boolean.  Anything
    else is an error naming the key, where ``float`` would read ``true`` or
    ``"0.6"`` as a number and pass NaN through every ``<=`` range check."""
    if type(value) in (int, float):
        with suppress(OverflowError):  # an integer beyond the float range
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"config key {key} must be a finite number, not {value!r}")


def _text(value, key: str) -> str:
    """A text config value: a JSON string, where ``str`` would read 7 as "7"."""
    if type(value) is str:
        return value
    raise ValueError(f"config key {key} must be a string, not {value!r}")


def _list(value, key: str, length: Optional[int] = None) -> list:
    """A list config value (a tuple, as ``resolved_dict`` gives, passes too),
    of ``length`` entries when that is given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        what = "a list" if length is None else f"a list of {length} entries"
        raise ValueError(f"config key {key} must be {what}, not {value!r}")
    return value


def _reals(value, key: str, length: Optional[int] = None) -> tuple[float, ...]:
    return tuple(_real(v, f"{key}[{i}]") for i, v in enumerate(_list(value, key, length)))


def _pairs(value, key: str) -> tuple[tuple[float, float], ...]:
    return tuple(_reals(v, f"{key}[{i}]", 2) for i, v in enumerate(_list(value, key)))


# The reader of a section's field, by the text of the field's annotation
# (``config`` and ``dynamics`` postpone annotations, so ``Field.type`` is text).
_READERS = {"int": _integer, "float": _real, "tuple[float, ...]": _reals,
            "tuple[tuple[float, float], ...]": _pairs}


def _section(cls, doc: dict, where: str):
    """A ``cls`` built from the config section at dotted path ``where``.

    Keys that are not init fields of ``cls`` are rejected; each field is read
    by its annotation's reader under the key ``where.<field>``, and one with a
    default may be omitted.
    """
    init = [f for f in fields(cls) if f.init]
    _reject_unknown_keys(doc, frozenset(f.name for f in init), where + ".")
    values = {}
    for f in init:
        if f.name in doc:
            values[f.name] = _READERS[f.type](doc[f.name], f"{where}.{f.name}")
        elif f.default is MISSING:
            raise ValueError(f"{where} is missing field '{f.name}'")
    return cls(**values)


def environment_from_dict(doc: dict) -> Environment:
    """Build and validate an Environment from a parsed document.

    Its numbers, ``q_init``, ``bounds`` and each region's ``rect``, are read
    as a config's reals are, and its text (``propositions``, a list, ``unsafe``
    and each region's ``id`` and ``label``) as its strings are, under the keys
    ``environment.q_init[2]``, ``environment.regions[0].id`` and so on.
    """
    try:
        props = frozenset(_text(p, f"environment.propositions[{i}]") for i, p in
                          enumerate(_list(doc["propositions"], "environment.propositions")))
        unsafe = _text(doc["unsafe"], "environment.unsafe")
        x, y, theta = _reals(doc["q_init"], "environment.q_init", 3)
        bounds = Rect(*_reals(doc["bounds"], "environment.bounds", 4))
        regions = tuple(
            Region(name=_text(r["id"], f"environment.regions[{i}].id"),
                   label=_text(r["label"], f"environment.regions[{i}].label"),
                   rect=Rect(*_reals(r["rect"], f"environment.regions[{i}].rect", 4)))
            for i, r in enumerate(doc["regions"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed environment document: {exc}") from exc
    return Environment(regions=regions, propositions=props, unsafe=unsafe,
                       initial_pose=Pose(x, y, theta), bounds=bounds)


def config_from_dict(doc: dict, base_dir: Optional[Path] = None) -> RunConfig:
    """Build a RunConfig from a parsed document.

    ``environment`` may be a path (resolved against base_dir) or an inline
    object.  Unknown keys in the document and in its vehicle, noise and
    algorithm sections are rejected.
    """
    _reject_unknown_keys(doc, _TOP_KEYS, "")
    try:
        env_field = doc["environment"]
        formula_text = _text(doc["formula"], "formula")
        veh = doc["vehicle"]
        noise = doc["noise"]
        alg = doc["algorithm"]
        seed = _integer(doc["seed"], "seed")
    except KeyError as exc:
        raise ValueError(f"config is missing field {exc}") from exc
    if seed < 0:
        raise ValueError("seed must be non-negative")
    workers = _integer(doc.get("workers", 1), "workers")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    if isinstance(env_field, dict):
        env_doc = env_field
    else:
        path = Path(env_field)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        env_doc = json.loads(path.read_text())
    env = environment_from_dict(env_doc)

    params = _section(VehicleParams, veh, "vehicle")
    _reject_unknown_keys(noise, _NOISE_KEYS, "noise.")
    try:
        right, left = noise["right"], noise["left"]
    except KeyError as exc:
        raise ValueError(f"noise is missing side {exc}") from exc
    nm = NoiseModel(right=_section(WheelNoise, right, "noise.right"),
                    left=_section(WheelNoise, left, "noise.left"))
    algorithm = _section(AlgorithmParams, alg, "algorithm")

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
