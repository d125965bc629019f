"""Planar workspace model: labeled rectangular regions and the initial pose.

Regions are axis-aligned rectangles with pairwise-disjoint interiors (shared
edges are allowed).  Every region carries exactly one proposition label; one
designated proposition marks the unsafe regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Pose


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rectangle {self!r}")

    def contains_point(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def interior_overlaps(self, other: "Rect") -> bool:
        return (self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1)


@dataclass(frozen=True)
class Region:
    """One labeled region of interest."""

    name: str
    label: str
    rect: Rect


@dataclass(frozen=True)
class Environment:
    """Workspace bounds, regions, proposition set, and the initial pose.

    Immutable after construction; safe to share across parallel samplers.
    """

    regions: tuple[Region, ...]
    propositions: frozenset[str]
    unsafe: str
    initial_pose: Pose
    bounds: Rect

    def __post_init__(self):
        if self.unsafe not in self.propositions:
            raise ValueError(f"unsafe proposition {self.unsafe!r} not in proposition set")
        for reg in self.regions:
            if reg.label not in self.propositions:
                raise ValueError(f"region {reg.name!r} has unknown proposition {reg.label!r}")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("region names must be unique")
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                if a.rect.interior_overlaps(b.rect):
                    raise ValueError(f"regions overlap: {a.name!r} and {b.name!r}")
        p = self.initial_pose
        if not self.bounds.contains_point(p.x, p.y):
            raise ValueError("initial pose lies outside the workspace bounds")
        for reg in self.regions:
            if reg.label == self.unsafe and reg.rect.contains_point(p.x, p.y):
                raise ValueError(f"initial pose lies inside unsafe region {reg.name!r}")

    def unsafe_regions(self) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.label == self.unsafe)

