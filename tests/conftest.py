import json
import math

import numpy as np
import pytest

from bltlsynth.config import AlgorithmParams, builtin_config_path, load_config
from bltlsynth.dynamics import NoiseModel, Pose, VehicleParams, WheelNoise
from bltlsynth.env import Environment, Rect, Region
from bltlsynth.synthesis import Policy

WHEEL_RADIUS = 0.085
WHEEL_SEP = 0.295
DT = 2.6
ENCODER_DELTA = 2 * math.pi / (378 * 2.6)

TURN_LEFT = ((1 + WHEEL_SEP) / (4 * WHEEL_RADIUS), (1 - WHEEL_SEP) / (4 * WHEEL_RADIUS))
STRAIGHT = (1 / (4 * WHEEL_RADIUS), 1 / (4 * WHEEL_RADIUS))
TURN_RIGHT = ((1 - WHEEL_SEP) / (4 * WHEEL_RADIUS), (1 + WHEEL_SEP) / (4 * WHEEL_RADIUS))

MISSION_FORMULA = ("!u U[<=14] (G[<=0.8] p & !u U[<=5] "
                   "((G[<=1] t1 | G[<=0.8] t2) & !u U[<=4] d))")
# Loose algorithm parameters for small runs; tests replace fields as needed.
TEST_ALGORITHM = AlgorithmParams(episodes_per_round=40, greediness=0.6, history_weight=0.6,
                                 delta=0.05, confidence=0.95, prior_alpha=1.0,
                                 prior_beta=1.0, stop_radius=0.05)

COURIER_FORMULA = "!u U[<=6.2] (p & !u U[<=2.3] (G[<=0.2] t & !u U[<=2.3] d))"

# worked-example traces for the courier mission above
COURIER_TRACE = [(None, 6.12), ("p", 0.75), (None, 0.44),
                 ("t", 0.61), (None, 1.66), ("d", 1.22)]
COURIER_TRACE_TUBE = [(None, 5.72), ("p", 1.24), (None, 0.87),
                      ("t", 0.24), (None, 1.96), ("d", 0.82)]
COURIER_TRACE_INNER = [(None, 5.59), ("p", 1.45), (None, 0.53),
                       ("t", 0.56), (None, 1.62), ("d", 1.24)]


def symmetric_noise(eps_min: float, delta: float, n: int, probs) -> NoiseModel:
    """Identical noise on both wheels."""
    w = WheelNoise(eps_min, delta, n, tuple(probs))
    return NoiseModel(right=w, left=w)


@pytest.fixture
def demo_params() -> VehicleParams:
    return VehicleParams(WHEEL_RADIUS, WHEEL_SEP, DT,
                         (TURN_LEFT, STRAIGHT, TURN_RIGHT))


@pytest.fixture
def demo_noise() -> NoiseModel:
    return symmetric_noise(-1.5 * ENCODER_DELTA, ENCODER_DELTA, 3, (0.25, 0.5, 0.25))


@pytest.fixture
def zero_noise() -> NoiseModel:
    return symmetric_noise(0.0, 0.0, 1, (1.0,))


@pytest.fixture
def demo_config():
    return load_config(builtin_config_path())


@pytest.fixture
def demo_env(demo_config) -> Environment:
    return demo_config.env


def simple_env(regions, props=("u", "a", "b"), unsafe="u", start=(0.0, 0.0, 0.0),
               bounds=(-10.0, -10.0, 10.0, 10.0)) -> Environment:
    """Small custom environment for geometry tests."""
    return Environment(
        regions=tuple(Region(name=f"r{i}", label=label, rect=Rect(*rect))
                      for i, (label, rect) in enumerate(regions)),
        propositions=frozenset(props),
        unsafe=unsafe,
        initial_pose=Pose(*start),
        bounds=Rect(*bounds),
    )


def policy_from_rows(rows, n_actions, deterministic=False) -> Policy:
    """Policy with one row per history of ``rows`` (history -> action
    probabilities); a deterministic one takes each row's argmax."""
    index = {state: i for i, state in enumerate(rows)}
    probs = np.array(list(rows.values()), dtype=float).reshape(len(rows), n_actions)
    if deterministic:
        return Policy(n_actions, index, actions=probs.argmax(axis=1).tolist())
    return Policy(n_actions, index, probs=probs)


def env_doc_dict(**overrides) -> dict:
    doc = {
        "propositions": ["u", "p"],
        "unsafe": "u",
        "q_init": [0.0, 0.0, 0.0],
        "bounds": [-5.0, -5.0, 5.0, 5.0],
        "regions": [
            {"id": "goal", "label": "p", "rect": [1.0, -1.0, 2.0, 1.0]},
            {"id": "pit", "label": "u", "rect": [3.0, -1.0, 4.0, 1.0]},
        ],
    }
    doc.update(overrides)
    return doc


def load_demo_config_doc() -> dict:
    return json.loads(builtin_config_path().read_text())
