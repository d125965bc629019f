"""Differential-drive kinematics, actuator noise, and the encoder interval model.

The vehicle has two driven wheels of radius ``wheel_radius`` separated by
``wheel_separation``.  Commands are pairs of wheel angular velocities that stay
constant over one stage of ``dt`` seconds; each wheel's actual speed is the
command plus a bounded random offset.  An incremental encoder on each wheel
reports which width-``delta`` sub-interval of the noise range the offset fell
into, so the controller observes intervals, never exact speeds.

Noise-interval indices ``j`` are 1-based (1..n); action indices are 0-based
positions into ``VehicleParams.actions``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

# Below this body angular rate the exact arc formula degenerates; treat as straight.
OMEGA_STRAIGHT_EPS = 1e-12
# The modulus of wrap_angle and angle_diff.
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Pose:
    """Planar pose (x, y, theta); theta is stored wrapped to [0, 2*pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    return theta % TWO_PI


def angle_diff(a: float, b: float) -> float:
    """Absolute angular difference on the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class VehicleParams:
    """Wheel geometry, stage duration, and the finite command set.

    ``actions`` lists (right, left) wheel angular velocities in rad/s.
    """

    wheel_radius: float
    wheel_separation: float
    dt: float
    actions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not 0 < self.wheel_radius < math.inf:
            raise ValueError("wheel_radius must be positive and finite")
        if not 0 < self.wheel_separation < math.inf:
            raise ValueError("wheel_separation must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        acts = tuple((float(r), float(l)) for r, l in self.actions)
        if not acts:
            raise ValueError("actions must be non-empty")
        if len(set(acts)) != len(acts):
            raise ValueError("actions must be duplicate-free")
        object.__setattr__(self, "actions", acts)


@dataclass(frozen=True)
class WheelNoise:
    """Bounded noise for one wheel, partitioned into n tiles of width delta.

    The support is [eps_min, eps_min + n*delta]; tile j (1-based) is
    [eps_min + (j-1)*delta, eps_min + j*delta] and carries mass probs[j-1].
    Constructing from (eps_min, delta, n) makes the tiling exact by design.
    ``cdf`` holds the running sums of ``probs``, computed once, for drawing
    tiles by inverse CDF (``tile``).
    """

    eps_min: float
    delta: float
    n: int
    probs: tuple[float, ...]
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("interval count n must be a positive integer")
        if not math.isfinite(self.eps_min):
            raise ValueError("eps_min must be finite")
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be non-negative and finite")
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != self.n:
            raise ValueError(f"expected {self.n} probabilities, got {len(probs)}")
        if not all(0 <= p < math.inf for p in probs):
            raise ValueError("interval probabilities must be non-negative and finite")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError(f"interval probabilities must sum to 1, got {sum(probs)!r}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", tuple(accumulate(probs)))

    def interval(self, j: int) -> tuple[float, float]:
        """Endpoints of noise interval j (1-based)."""
        if not 1 <= j <= self.n:
            raise IndexError(f"noise interval index {j} out of range 1..{self.n}")
        return (self.eps_min + (j - 1) * self.delta, self.eps_min + j * self.delta)

    def tile(self, u: float) -> int:
        """The tile (1-based) that a uniform u in [0, 1) draws by inverse CDF;
        a u past the last running sum, short of 1 by rounding, draws tile n."""
        return min(bisect_right(self.cdf, u) + 1, self.n)

    def noise_in_tile(self, j: int, u: float) -> float:
        """The noise that a uniform u in [0, 1) draws inside tile j."""
        lo, hi = self.interval(j)
        return lo + u * (hi - lo)

    def midpoint(self, j: int) -> float:
        lo, hi = self.interval(j)
        return (lo + hi) / 2.0


@dataclass(frozen=True)
class NoiseModel:
    """Per-wheel actuator noise; 'r' is the right wheel, 'l' the left."""

    right: WheelNoise
    left: WheelNoise


@dataclass(frozen=True)
class MeasuredInterval:
    """One stage's encoder output: a wheel-speed interval per wheel.

    Fully determined by the commanded action and the noise-interval index hit
    on each wheel; the numeric endpoints are command + tile endpoints.
    """

    action_index: int
    j_r: int
    j_l: int
    r_lo: float
    r_hi: float
    l_lo: float
    l_hi: float


def wheel_to_body(params: VehicleParams, w_r: float, w_l: float) -> tuple[float, float]:
    """Map wheel angular speeds to body (forward speed, turn rate)."""
    r = params.wheel_radius
    v = r * (w_r + w_l) / 2.0
    omega = r * (w_r - w_l) / params.wheel_separation
    return v, omega


def integrate_body(x: float, y: float, theta: float, v: float, omega: float,
                   tau: float) -> tuple[float, float, float]:
    """The pose (x, y, theta) after tau seconds at constant body speed v and
    turn rate omega from the given one: a straight line below
    OMEGA_STRAIGHT_EPS, else an arc.  The end heading is wrapped as ``Pose``
    stores it (on a line, the start heading is wrapped again)."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if abs(omega) < OMEGA_STRAIGHT_EPS:
        return x + v * tau * math.cos(theta), y + v * tau * math.sin(theta), theta % TWO_PI
    th1 = theta + omega * tau
    return (x + (v / omega) * (math.sin(th1) - math.sin(theta)),
            y - (v / omega) * (math.cos(th1) - math.cos(theta)), th1 % TWO_PI)


def measure(nm: NoiseModel, params: VehicleParams, action_index: int,
            j_r: int, j_l: int) -> MeasuredInterval:
    """Encoder output for one stage: command action, noise tiles (j_r, j_l)."""
    if not 0 <= action_index < len(params.actions):
        raise IndexError(f"action index {action_index} out of range")
    u_r, u_l = params.actions[action_index]
    r_lo, r_hi = nm.right.interval(j_r)
    l_lo, l_hi = nm.left.interval(j_l)
    return MeasuredInterval(action_index, j_r, j_l,
                            u_r + r_lo, u_r + r_hi, u_l + l_lo, u_l + l_hi)
