"""Spectral scales of simple functions and the majorisation orders.

The scale of a function is its right-continuous decreasing rearrangement,
represented as a step function on [0,1) by (value, length) steps with
adjacent equal values merged. All breakpoints and values are exact
rationals; every query below computes on integer numerators over a common
denominator and is exact.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from math import lcm

from .errors import DomainError, InternalError
from .measure import (ZERO, SimpleFunction, _Record, _fold_pairs, _level_pairs, _pair,
                      abs_function, common_refinement)
from .rationals import _format_pair, _reduced, _shown


def merge_pairs(pairs) -> tuple[tuple[Fraction, Fraction], ...]:
    """Merge adjacent (value, length) pairs with equal values, dropping
    zero-length entries."""
    merged: list[list[Fraction]] = []
    for value, length in pairs:
        if length == 0:
            continue
        if merged and merged[-1][0] == value:
            merged[-1][1] += length
        else:
            merged.append([value, length])
    return tuple((v, l) for v, l in merged)


def _rescaled(pairs, value_factor: int, length_factor: int) -> list[tuple[int, int]]:
    """(value, length) numerators brought to denominators larger by the
    given factors: one multiply per entry."""
    return [(v * value_factor, l * length_factor) for v, l in pairs]


class StepScale(_Record):
    """Decreasing right-continuous step function on [0,1), total length 1.

    A scale keeps the integer profile every query reads: ``_profile`` = (D, V, (value, length)
    numerators over V and D), and ``_ends``, each step's end over D. A scale given its steps
    folds them; one built by ``_of`` from its profile derives its reduced (value, length) pairs
    ``_pairs`` on first read, by ``_derive`` or by reducing the profile, and its steps from
    them. A scale prints from ``_pairs``. Its cumulative is the least of the lines a_k + b_k s
    in ``_lines``, derived on first read: b_k is step k's value over V, and a_k = P_k - b_k E_k
    over D*V, with P_k the integral up to the step's end E_k.
    """

    steps: tuple[tuple[Fraction, Fraction], ...]
    _pairs = cached_property(lambda s: s._derive() if s._derive else tuple(
        (_reduced(v, s._profile[1]), _reduced(l, s._profile[0])) for v, l in s._profile[2]))
    steps = cached_property(lambda s: tuple((Fraction(*v), Fraction(*l)) for v, l in s._pairs))
    _lines = cached_property(lambda s: tuple(
        (integral - value * end, value) for integral, end, (value, _) in
        zip(accumulate(v * l for v, l in s._profile[2]), s._ends, s._profile[2])))

    def __post_init__(self):
        (vden, values), (den, lengths) = (_fold_pairs([_pair(s[k]) for s in self.steps])
                                          for k in (0, 1))
        self._fold((den, vden, tuple(zip(values, lengths))))

    def _fold(self, profile, derive=None):
        """Check the profile and keep it with its ends."""
        den, _, ints = profile
        if not ints:
            raise InternalError("a scale is never empty")
        for i, (value, length) in enumerate(ints):
            if length <= 0:
                raise InternalError("step lengths must be > 0")
            if i and ints[i - 1][0] <= value:
                raise InternalError("step values must be strictly decreasing")
        ends = tuple(accumulate(length for _, length in ints))
        if ends[-1] != den:
            raise InternalError(f"step lengths sum to {_shown(Fraction(ends[-1], den))}, expected 1")
        self.__dict__.update(_profile=profile, _derive=derive, _ends=ends)

    @classmethod
    def from_pairs(cls, pairs) -> "StepScale":
        ordered = sorted(pairs, key=lambda p: p[0], reverse=True)
        return cls(merge_pairs(ordered))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Cumulative right endpoints of the steps; the last one is 1."""
        return tuple(accumulate(length for _, length in self.steps))

    def value_at(self, t: Fraction) -> Fraction:
        t = Fraction(t)
        if not 0 <= t < 1:
            raise DomainError(f"scale evaluated outside [0,1): {t}")
        k = bisect_right(self._ends, t.numerator * self._profile[0] // t.denominator)
        return self.steps[k][0]

    def serialize(self) -> dict:
        return {"steps": [{"value": _format_pair(*v), "length": _format_pair(*l)}
                          for v, l in self._pairs]}


class IncreasingScale(_Record):
    """Increasing right-continuous step function on [0,1): the reversed scale."""

    steps: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        total = ZERO
        for i, (value, length) in enumerate(self.steps):
            if length <= 0:
                raise InternalError("step lengths must be > 0")
            if i and self.steps[i - 1][0] >= value:
                raise InternalError("step values must be strictly increasing")
            total += length
        if total != 1:
            raise InternalError(f"step lengths sum to {total}, expected 1")


class MajorisationReport(_Record):
    """Built by ``_of`` from majorise_check's slack walk ``_walk`` = (D, V, (end, slack)
    numerators over D and D*V), a report derives its Fraction fields on first read and prints
    from the walk."""

    holds: bool
    breakpoint_slacks: tuple[tuple[Fraction, Fraction], ...]
    total_gap: Fraction
    _walk = None
    breakpoint_slacks = cached_property(lambda r: tuple((Fraction(*t), Fraction(*s))
                                                        for t, s in r._walk_pairs()))
    total_gap = cached_property(lambda r: r.breakpoint_slacks[-1][1])

    def _fold(self, holds, walk):
        self.__dict__.update(holds=holds, _walk=walk)

    def _walk_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The walk's (t, slack) reduced pairs."""
        den, vden, walk = self._walk
        return [(_reduced(t, den), _reduced(s, den * vden)) for t, s in walk]

    def serialize(self) -> dict:
        rows = self._walk_pairs() if self._walk else [(_pair(t), _pair(s))
                                                      for t, s in self.breakpoint_slacks]
        gap = rows[-1][1] if self._walk else _pair(self.total_gap)
        slacks = [{"t": _format_pair(*t), "slack": _format_pair(*s)} for t, s in rows]
        return {"holds": self.holds, "breakpoint_slacks": slacks, "total_gap": _format_pair(*gap)}


# ---------------------------------------------------------------------------
# scale constructions
# ---------------------------------------------------------------------------

def rearrange(f: SimpleFunction) -> StepScale:
    """The decreasing rearrangement: all (value, mass) carriers sorted by
    value descending, equal values merged. Equimeasurable with f.

    Its integer profile is f's carrier table's levels, and f keeps its scale
    once computed, so later calls return the same object."""
    if f._scale is None:
        levels, den = f._table, f._masses[0]
        derive = partial(_level_pairs, f.space, f._atoms, f._pieces, den, levels)
        profile = (den, f._values[0], tuple((value, length) for value, _, length in levels))
        object.__setattr__(f, "_scale", StepScale._of(profile, derive))
    return f._scale


def distribution(f: SimpleFunction, s: Fraction) -> Fraction:
    """Mass of {f > s}; decreasing and right-continuous in s."""
    s = Fraction(s)
    return sum((m for v, m in f.weighted_values() if v > s), ZERO)


def co_scale(f: SimpleFunction) -> IncreasingScale:
    """The increasing rearrangement; equals t -> -rearrange(-f)(t)."""
    return IncreasingScale(tuple(reversed(rearrange(f).steps)))


def singular_scale(f: SimpleFunction) -> StepScale:
    """Decreasing rearrangement of |f|."""
    return rearrange(abs_function(f))


def cumulative(scale: StepScale, s: Fraction) -> Fraction:
    """Integral of the step function over [0, s]; piecewise linear in s."""
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"cumulative argument outside [0,1]: {s}")
    den, vden, _ = scale._profile
    p, q = s.numerator, s.denominator
    a, b = scale._lines[bisect_left(scale._ends, -(-p * den // q))]  # the first end at or after s
    return Fraction(a * q + b * p * den, q * den * vden)


def add_scales(a: StepScale, b: StepScale) -> StepScale:
    """Pointwise sum of two decreasing step functions: refine the breakpoint
    sets, add values, re-merge. The sum is again decreasing."""
    return StepScale(
        merge_pairs((va + vb, l) for va, vb, l in common_refinement(a.steps, b.steps))
    )


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def _on_common(x: StepScale, y: StepScale):
    """(D, V, x steps, y steps): both step lists over common denominators D and V."""
    (dx, vx, x_ints), (dy, vy, y_ints) = x._profile, y._profile
    den, vden = lcm(dx, dy), lcm(vx, vy)
    x_ints = _rescaled(x_ints, vden // vx, den // dx)
    return den, vden, x_ints, _rescaled(y_ints, vden // vy, den // dy)


def _slack_walk(x: StepScale, y: StepScale):
    """majorise_check's walk in integers: _on_common(x, y) and the walk's
    (end, integral_0^end (y - x)) numerators over D and D*V."""
    den, vden, x_ints, y_ints = _on_common(x, y)
    walk = []
    t = slack = 0
    for x_value, y_value, length in common_refinement(x_ints, y_ints):
        t += length
        slack += (y_value - x_value) * length
        walk.append((t, slack))
    return den, vden, x_ints, y_ints, walk


def _holds(walk) -> bool:
    return walk[-1][1] == 0 and all(s >= 0 for _, s in walk)


def majorise_check(x: StepScale, y: StepScale) -> MajorisationReport:
    """Hardy-Littlewood-Polya order: cumulative of x never exceeds that of y,
    with equal totals. One walk over the common refinement of the two step
    lists carries the running slack; both cumulatives are linear on each
    refinement step, whose ends are the union of breakpoints, so checking
    the slack at those ends is exact and sufficient."""
    den, vden, _, _, walk = _slack_walk(x, y)
    return MajorisationReport._of(_holds(walk), (den, vden, walk))


def submajorise_check(x: SimpleFunction, y: SimpleFunction) -> bool:
    """Weak (sub)majorisation of the singular value scales: partial integrals
    of |x|'s rearrangement never exceed |y|'s; no total-equality requirement."""
    return all(s >= 0 for _, s in _slack_walk(singular_scale(x), singular_scale(y))[4])
