"""Bounded-LTL formulas over timed traces: parsing, checking, and horizons.

A timed trace is a finite sequence of (label, duration) pairs where the label
is a proposition name or None (no region), durations are in seconds, and
consecutive labels differ.  The sequential mission fragment (reach-and-dwell
phases chained by unsafe-avoiding untils) is checked from its phase
decomposition:

* ``SequentialMonitor`` takes a trace one step at a time, the last step
  possibly still open (its duration so far a lower bound), and fixes the
  verdict as soon as the steps so far decide it: when the last phase's dwell
  is met, or when no phase can still be reached (unsafe contact, or every
  live phase's time bound passed).  ``check_sequential`` is the monitor fed a
  whole trace.
* ``sequential_witness`` is the exhaustive search over hit positions that the
  monitor runs online; it returns the witness chain that explains a verdict.

Concrete syntax: identifiers are atoms; ``!``, ``&``, ``|`` are Boolean;
``U[<=t]``, ``F[<=t]``, ``G[<=t]`` are the bounded temporal operators;
parentheses group.  Binding strength, tightest first: unary (``!``, ``G``,
``F``), then ``U`` (right-associative), then ``&``, then ``|``.  ``U`` binding
tighter than ``&`` is what makes ``a & !u U[<=5] b`` read as the mission chain
``a & (!u U[<=5] b)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

TraceStep = tuple[Optional[str], float]


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Until:
    left: "Formula"
    right: "Formula"
    bound: float


@dataclass(frozen=True)
class Eventually:
    child: "Formula"
    bound: float


@dataclass(frozen=True)
class Always:
    child: "Formula"
    bound: float


Formula = Union[Atom, Not, And, Or, Until, Eventually, Always]


def atoms_of(phi: Formula) -> frozenset[str]:
    """All proposition names appearing in the formula."""
    if isinstance(phi, Atom):
        return frozenset({phi.name})
    if isinstance(phi, (Not, Eventually, Always)):
        return atoms_of(phi.child)
    return atoms_of(phi.left) | atoms_of(phi.right)


# ---------------------------------------------------------------------------
# Parser

class ParseError(ValueError):
    """Lexical or syntax error, with the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<temporal>[UGF]\[<=\s*(?P<bound>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*\])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[!&|()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "temporal":
                op = text[pos]
                bound = float(m.group("bound"))
                if bound < 0:
                    raise ParseError("negative bound", pos)
                if not math.isfinite(bound):
                    raise ParseError("bound must be finite", pos)
                tokens.append((op, bound, pos))
            elif kind == "ident":
                tokens.append(("atom", m.group("ident"), pos))
            else:
                tokens.append((m.group("punct"), None, pos))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi = self.parse_or()
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {kind!r}", pos)
        return phi

    def parse_or(self) -> Formula:
        phi = self.parse_and()
        while self.peek()[0] == "|":
            self.advance()
            phi = Or(phi, self.parse_and())
        return phi

    def parse_and(self) -> Formula:
        phi = self.parse_until()
        while self.peek()[0] == "&":
            self.advance()
            phi = And(phi, self.parse_until())
        return phi

    def parse_until(self) -> Formula:
        phi = self.parse_unary()
        if self.peek()[0] == "U":
            _, bound, _ = self.advance()
            return Until(phi, self.parse_until(), float(bound))
        return phi

    def parse_unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "!":
            self.advance()
            return Not(self.parse_unary())
        if kind == "G":
            self.advance()
            return Always(self.parse_unary(), float(value))
        if kind == "F":
            self.advance()
            return Eventually(self.parse_unary(), float(value))
        if kind == "atom":
            self.advance()
            return Atom(str(value))
        if kind == "(":
            self.advance()
            phi = self.parse_or()
            k, _, p = self.advance()
            if k != ")":
                raise ParseError("expected ')'", p)
            return phi
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with position."""
    return _Parser(_tokenize(text)).parse()


def _fmt_bound(t: float) -> str:
    return repr(float(t))


# precedence levels for printing: higher binds tighter
_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = 0, 1, 2, 3


def format_formula(phi: Formula) -> str:
    """Render to the concrete syntax; reparsing yields an identical AST."""

    def go(node: Formula, parent_level: int) -> str:
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, Not):
            return "!" + go(node.child, _LEVEL_UNARY)
        if isinstance(node, Always):
            return f"G[<={_fmt_bound(node.bound)}] " + go(node.child, _LEVEL_UNARY)
        if isinstance(node, Eventually):
            return f"F[<={_fmt_bound(node.bound)}] " + go(node.child, _LEVEL_UNARY)
        if isinstance(node, Until):
            # right-associative: right child may carry equal level unparenthesized
            s = (go(node.left, _LEVEL_UNTIL + 1)
                 + f" U[<={_fmt_bound(node.bound)}] "
                 + go(node.right, _LEVEL_UNTIL))
            return f"({s})" if parent_level > _LEVEL_UNTIL else s
        if isinstance(node, And):
            s = go(node.left, _LEVEL_AND) + " & " + go(node.right, _LEVEL_AND + 1)
            return f"({s})" if parent_level > _LEVEL_AND else s
        if isinstance(node, Or):
            s = go(node.left, _LEVEL_OR) + " | " + go(node.right, _LEVEL_OR + 1)
            return f"({s})" if parent_level > _LEVEL_OR else s
        raise TypeError(f"not a formula node: {node!r}")

    return go(phi, _LEVEL_OR)


# ---------------------------------------------------------------------------
# Sequential mission fragment

class FragmentError(ValueError):
    """Formula does not have the sequential mission shape."""


@dataclass(frozen=True)
class Disjunct:
    """One reach-and-dwell alternative: stay at least ``dwell`` seconds in a
    region labeled by one of ``props``."""

    dwell: float
    props: tuple[str, ...]

    def __post_init__(self):
        if self.dwell < 0:
            raise ValueError("dwell must be non-negative")
        if not self.props:
            raise ValueError("disjunct needs at least one proposition")


@dataclass(frozen=True)
class Phase:
    """Reach one of the disjuncts within ``time_bound`` while avoiding unsafe."""

    time_bound: float
    disjuncts: tuple[Disjunct, ...]

    def __post_init__(self):
        if self.time_bound < 0:
            raise ValueError("phase time bound must be non-negative")
        if not self.disjuncts:
            raise ValueError("phase needs at least one disjunct")


@dataclass(frozen=True)
class SequentialSpec:
    """Phase decomposition of the sequential mission fragment."""

    unsafe: str
    phases: tuple[Phase, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("spec needs at least one phase")
        for ph in self.phases:
            for dis in ph.disjuncts:
                if self.unsafe in dis.props:
                    raise ValueError("goal propositions must exclude the unsafe one")


def _flatten_or(phi: Formula) -> list[Formula]:
    if isinstance(phi, Or):
        return _flatten_or(phi.left) + _flatten_or(phi.right)
    return [phi]


def _guard_disjunct(phi: Formula) -> Disjunct:
    """A guard is a bare atom or G[<=tau] over a disjunction of atoms."""
    if isinstance(phi, Atom):
        return Disjunct(0.0, (phi.name,))
    if isinstance(phi, Always):
        parts = _flatten_or(phi.child)
        names = []
        for p in parts:
            if not isinstance(p, Atom):
                raise FragmentError(
                    f"guard body must be a disjunction of atoms: {format_formula(p)}")
            names.append(p.name)
        return Disjunct(phi.bound, tuple(dict.fromkeys(names)))
    raise FragmentError(f"not a reach-and-dwell guard: {format_formula(phi)}")


def _guard_phase_formula(phi: Formula) -> tuple[Disjunct, ...]:
    return tuple(_guard_disjunct(p) for p in _flatten_or(phi))


def to_sequential(phi: Formula, unsafe: str) -> SequentialSpec:
    """Decompose a formula into mission phases; FragmentError if misshapen."""

    def expect_not_unsafe(node: Formula) -> None:
        if not (isinstance(node, Not) and isinstance(node.child, Atom)
                and node.child.name == unsafe):
            raise FragmentError(
                f"until left-hand side must be !{unsafe}: {format_formula(node)}")

    phases: list[Phase] = []

    def walk_until(node: Formula) -> None:
        if not isinstance(node, Until):
            raise FragmentError(f"expected an until chain: {format_formula(node)}")
        expect_not_unsafe(node.left)
        body = node.right
        if isinstance(body, And) and isinstance(body.right, Until):
            phases.append(Phase(node.bound, _guard_phase_formula(body.left)))
            walk_until(body.right)
        else:
            phases.append(Phase(node.bound, _guard_phase_formula(body)))

    walk_until(phi)
    try:
        return SequentialSpec(unsafe=unsafe, phases=tuple(phases))
    except ValueError as exc:
        raise FragmentError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Sequential checker

def sequential_witness(trace: Sequence[TraceStep],
                       spec: SequentialSpec) -> Optional[list[tuple[int, int, int]]]:
    """Satisfaction witness chain [(i_j, k_j, n_j)], 1-based, or None.

    Position i_j is where phase j starts, the hit is at i_j + k_j, and n_j is
    the disjunct picked.  The search is exhaustive over hit offsets and
    disjuncts (memoized over (phase, start)); a greedy earliest hit can fail
    the dwell requirement that a later hit meets.
    """
    steps = [(o, float(t)) for o, t in trace]
    if not steps:
        raise ValueError("trace must be non-empty")
    labels = [o for o, _ in steps]
    durs = [t for _, t in steps]
    length = len(steps)
    phases = spec.phases
    memo: dict[tuple[int, int], Optional[list[tuple[int, int, int]]]] = {}

    def solve(j: int, i: int) -> Optional[list[tuple[int, int, int]]]:
        if j == len(phases):
            return []
        key = (j, i)
        if key in memo:
            return memo[key]
        ph = phases[j]
        result: Optional[list[tuple[int, int, int]]] = None
        elapsed = 0.0
        for k in range(0, length - i):
            if k >= 1:
                before = i + k - 1
                if labels[before] == spec.unsafe:
                    break
                elapsed += durs[before]
            if elapsed > ph.time_bound:
                break
            hit = i + k
            for n, dis in enumerate(ph.disjuncts):
                if labels[hit] not in dis.props:
                    continue
                if durs[hit] < dis.dwell:
                    continue
                rest = solve(j + 1, hit)
                if rest is not None:
                    result = [(i + 1, k, n + 1)] + rest
                    break
            if result is not None:
                break
        memo[key] = result
        return result

    return solve(0, 0)


class SequentialMonitor:
    """Online verdict of a sequential mission spec over a trace fed step by step.

    It holds the live states of ``sequential_witness``'s search: per phase,
    the time spent since that phase's latest start.  A later start of a phase
    dominates an earlier one (less time spent, fewer states to cross), so one
    state per phase is enough.  ``push`` takes the next trace step; a step that
    is not yet ``closed`` may come again, with a longer duration, until it
    closes.  The verdict is fixed (``verdict`` is no longer None) as soon as

    * a last-phase disjunct's dwell is met, even on an open step: satisfied;
    * no live state remains, because an unsafe step began or every live
      phase's time bound has passed: violated.

    A trace that ends without either is violated (``result``).  ``snapshot``
    gives the monitor's state as an immutable value, and ``restore`` puts it
    into a monitor of the same spec.
    """

    def __init__(self, spec: SequentialSpec):
        self.spec = spec
        self._spent: list[Optional[float]] = [0.0] + [None] * (len(spec.phases) - 1)
        self.verdict: Optional[bool] = None

    def snapshot(self) -> tuple:
        """The live states and the verdict so far."""
        return tuple(self._spent), self.verdict

    def restore(self, state: tuple) -> None:
        """Take the state of a ``snapshot`` of a monitor of the same spec."""
        spent, self.verdict = state
        self._spent = list(spent)

    def push(self, label: Optional[str], duration: float,
             closed: bool = True) -> Optional[bool]:
        """Feed the next step, or the open one again; returns the verdict so far.

        The duration of an open step is a lower bound of its final one.
        """
        if self.verdict is not None:
            return self.verdict
        phases, spent, unsafe = self.spec.phases, self._spent, self.spec.unsafe
        last = len(phases) - 1
        # a hit spawns the next phase at this step, which the loop reaches next
        for j, e in enumerate(spent):
            if e is None:
                continue
            ph = phases[j]
            goal = False
            for dis in ph.disjuncts:
                if label in dis.props:
                    goal = True
                    if duration >= dis.dwell:
                        if j == last:
                            self.verdict = True
                            return True
                        spent[j + 1] = 0.0
                        break
            e += duration
            if closed:
                spent[j] = None if label == unsafe or e > ph.time_bound else e
            elif not goal and (label == unsafe or e > ph.time_bound):
                # an open step can still grow into a hit, unless its label is
                # none of the phase's goals
                spent[j] = None
        if spent.count(None) == len(spent):
            self.verdict = False
        return self.verdict

    def result(self) -> bool:
        """The verdict once the trace has ended."""
        return self.verdict is True


def check_sequential(trace: Sequence[TraceStep], spec: SequentialSpec) -> bool:
    """True iff the trace satisfies the sequential mission spec: the monitor
    fed the whole trace."""
    if not trace:
        raise ValueError("trace must be non-empty")
    monitor = SequentialMonitor(spec)
    for label, duration in trace:
        if monitor.push(label, float(duration)) is not None:
            break
    return monitor.result()


# ---------------------------------------------------------------------------
# Horizon

def nested_bound_sum(phi: Formula) -> float:
    """Maximum nested sum of time bounds along any path of the AST."""
    if isinstance(phi, Atom):
        return 0.0
    if isinstance(phi, Not):
        return nested_bound_sum(phi.child)
    if isinstance(phi, (And, Or)):
        return max(nested_bound_sum(phi.left), nested_bound_sum(phi.right))
    if isinstance(phi, Until):
        return phi.bound + max(nested_bound_sum(phi.left), nested_bound_sum(phi.right))
    if isinstance(phi, (Eventually, Always)):
        return phi.bound + nested_bound_sum(phi.child)
    raise TypeError(f"not a formula node: {phi!r}")


def horizon_stages(phi: Formula, dt: float) -> int:
    """Smallest stage count covering the nested bound sum, to 1e-9 of a stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    # 2.1 s / 0.7 s is 3.0000000000000004 in floats: 3 stages, not 4
    return max(1, math.ceil(nested_bound_sum(phi) / dt - 1e-9))
