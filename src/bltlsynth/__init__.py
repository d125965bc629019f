"""Control-strategy synthesis for a noisy differential-drive vehicle against
bounded-LTL missions, with Bayesian probability estimation and closed-loop
validation."""

from .bltl import (Always, And, Atom, Disjunct, Eventually, Formula,
                   FragmentError, Not, Or, ParseError, Phase, SequentialMonitor,
                   SequentialSpec, Until, check_sequential, format_formula,
                   horizon_stages, parse_formula, sequential_witness, to_sequential)
from .config import (AlgorithmParams, RunConfig, builtin_config_path, config_from_dict,
                     load_config)
from .dynamics import (MeasuredInterval, NoiseModel, Pose, VehicleParams,
                       WheelNoise, integrate_body, measure, wheel_to_body)
from .env import Environment, Rect, Region
from .mdp import PathSample, PathSampler
from .synthesis import (BieResult, Policy, QTable, SynthesisResult,
                        bie_estimate, determinize, evaluate_policy,
                        improve_policy, simulate_true_system, synthesize,
                        theorem_bound_holds, validate_true_system)
from .tracegen import Trajectory, UncertaintyTube, trace_from_trajectory, trace_from_tube
from .uncertainty import StageTerms, build_tube, propagate_stage, stage_terms

__version__ = "0.1.0"
