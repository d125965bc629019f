"""Run configuration: loading, validation, resolution, and hashing.

A run config is one JSON document naming the environment (a path or an inline
object), the mission formula, the vehicle and noise parameters, and the
algorithm parameters.  One reader (``_object``) reads every JSON object of
it, the environment document and each of its regions included: it names
every unknown key and every missing one.  The vehicle, noise and algorithm
sections take their keys from the dataclasses they fill (``VehicleParams``,
``WheelNoise`` per side, ``AlgorithmParams``): a field's annotation picks its
reader, and a field with a dataclass default may be omitted.  Every number is
a finite JSON number; NaN, ±Infinity, booleans and strings are errors that
name the key, as is a text field (formula, label, id, proposition) that is
not a JSON string.  The resolved form inlines the environment document as
read (reals as floats), so a single hash pins down everything that
determines the results (the worker count deliberately does not participate:
it must not change any output).
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
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


def _object(doc, where: str, readers: dict, defaults: Optional[dict] = None) -> dict:
    """The JSON object at dotted path ``where`` ("" at the top level), read
    key by key: each key it holds by ``readers[key](value, where.key)``, each
    it omits from ``defaults``.  A non-object, a key without a reader and a
    missing key without a default are errors that name the key."""
    name, prefix = (where, where + ".") if where else ("config", "")
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(doc) - set(readers))
    if "detection_divisor" in unknown:
        raise ValueError(f"config key {prefix}detection_divisor was removed: trace "
                         "event times are exact, with no detection grid; delete it")
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(prefix + k for k in unknown))
    values = {}
    for key, read in readers.items():
        if key in doc:
            values[key] = read(doc[key], prefix + key)
        elif defaults is not None and key in defaults:
            values[key] = defaults[key]
        else:
            raise ValueError(f"{name} is missing field '{key}'")
    return values


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


def _entries(read, length: Optional[int] = None):
    """The reader of a list (a tuple, as ``resolved_dict`` gives, passes too)
    of ``length`` entries when that is given, each read by ``read`` under the
    key ``key[i]``; it returns a list."""
    def entries(value, key: str) -> list:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            what = "a list" if length is None else f"a list of {length} entries"
            raise ValueError(f"config key {key} must be {what}, not {value!r}")
        return [read(v, f"{key}[{i}]") for i, v in enumerate(value)]
    return entries


# The reader of a section's field, by the text of the field's annotation
# (``config`` and ``dynamics`` postpone annotations, so ``Field.type`` is text);
# the dataclasses turn the lists into tuples.
_READERS = {"int": _integer, "float": _real, "tuple[float, ...]": _entries(_real),
            "tuple[tuple[float, float], ...]": _entries(_entries(_real, 2))}


def _section(cls, doc, where: str):
    """A ``cls`` built from the config section at dotted path ``where``: its
    init fields, each read by its annotation's reader, are its keys, and one
    with a default may be omitted."""
    init = [f for f in fields(cls) if f.init]
    return cls(**_object(doc, where, {f.name: _READERS[f.type] for f in init},
                         {f.name: f.default for f in init if f.default is not MISSING}))


def _noise(doc, where: str) -> NoiseModel:
    return NoiseModel(**_object(doc, where, dict.fromkeys(("right", "left"),
                                                          partial(_section, WheelNoise))))


# The readers of an environment document and of each of its regions.
_REGION_READERS = {"id": _text, "label": _text, "rect": _entries(_real, 4)}
_ENVIRONMENT_READERS = {
    "propositions": _entries(_text), "unsafe": _text, "q_init": _entries(_real, 3),
    "bounds": _entries(_real, 4),
    "regions": _entries(partial(_object, readers=_REGION_READERS))}


def _environment(doc: dict) -> Environment:
    """The Environment of an environment document as ``_object`` read it."""
    return Environment(
        regions=tuple(Region(name=r["id"], label=r["label"], rect=Rect(*r["rect"]))
                      for r in doc["regions"]),
        propositions=frozenset(doc["propositions"]), unsafe=doc["unsafe"],
        initial_pose=Pose(*doc["q_init"]), bounds=Rect(*doc["bounds"]))


def environment_from_dict(doc: dict) -> Environment:
    """Build and validate an Environment from a parsed document, read under
    the keys ``environment.q_init[2]``, ``environment.regions[0].id`` and so
    on."""
    return _environment(_object(doc, "environment", _ENVIRONMENT_READERS))


def config_from_dict(doc: dict, base_dir: Optional[Path] = None) -> RunConfig:
    """Build a RunConfig from a parsed document.

    ``environment`` may be a path (resolved against base_dir) or an inline
    object.  Unknown keys are rejected in every object of the document.
    """
    def environment(value, key: str) -> dict:
        if type(value) is str:
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            value = json.loads(path.read_text())
        elif not isinstance(value, dict):
            raise ValueError(f"config key {key} must be a path or a JSON object, "
                             f"not {value!r}")
        return _object(value, key, _ENVIRONMENT_READERS)

    top = _object(doc, "", {
        "environment": environment, "formula": _text,
        "vehicle": partial(_section, VehicleParams), "noise": _noise,
        "algorithm": partial(_section, AlgorithmParams), "seed": _integer,
        "workers": _integer}, {"workers": 1})
    if top["seed"] < 0:
        raise ValueError("seed must be non-negative")
    if top["workers"] < 1:
        raise ValueError("workers must be at least 1")
    env = _environment(top["environment"])
    formula = parse_formula(top["formula"])
    unknown = atoms_of(formula) - env.propositions
    if unknown:
        raise ValueError(f"formula uses propositions not in the environment: "
                         f"{sorted(unknown)}")
    return RunConfig(env=env, env_doc=top["environment"], formula=formula,
                     formula_text=top["formula"], params=top["vehicle"], nm=top["noise"],
                     algorithm=top["algorithm"], seed=top["seed"], workers=top["workers"])


def load_config(path: Path, seed_override: Optional[int] = None,
                workers_override: Optional[int] = None) -> RunConfig:
    """Load a run config file, optionally overriding seed or worker count
    (in an object: ``config_from_dict`` rejects any other document)."""
    doc = json.loads(Path(path).read_text())
    for key, value in (("seed", seed_override), ("workers", workers_override)):
        if value is not None and isinstance(doc, dict):
            doc[key] = value
    return config_from_dict(doc, base_dir=Path(path).resolve().parent)


def builtin_config_path() -> Path:
    """Path of the bundled demonstration mission config."""
    return Path(__file__).resolve().parent / "data" / "demo_mission.json"
