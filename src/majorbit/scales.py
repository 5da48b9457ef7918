"""Spectral scales of simple functions and the majorisation orders.

The scale of a function is its right-continuous decreasing rearrangement,
represented as a step function on [0,1) by (value, length) steps with
adjacent equal values merged. All breakpoints and values are exact
rationals; every comparison below is exact.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, InternalError
from .measure import ZERO, SimpleFunction, abs_function, common_refinement
from .rationals import format_ratstr


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


@dataclass(frozen=True)
class StepScale:
    """Decreasing right-continuous step function on [0,1), total length 1.

    Construction also records the step profile every query reads: the
    right end of each step and the integral over [0, start of each step).
    """

    steps: tuple[tuple[Fraction, Fraction], ...]
    _ends: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _integrals: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps:
            raise InternalError("a scale is never empty")
        total = integral = ZERO
        ends, integrals = [], []
        for i, (value, length) in enumerate(self.steps):
            if length <= 0:
                raise InternalError("step lengths must be > 0")
            if i and self.steps[i - 1][0] <= value:
                raise InternalError("step values must be strictly decreasing")
            integrals.append(integral)
            integral += value * length
            total += length
            ends.append(total)
        if total != 1:
            raise InternalError(f"step lengths sum to {total}, expected 1")
        object.__setattr__(self, "_ends", tuple(ends))
        object.__setattr__(self, "_integrals", tuple(integrals))

    @classmethod
    def from_pairs(cls, pairs) -> "StepScale":
        ordered = sorted(pairs, key=lambda p: p[0], reverse=True)
        return cls(merge_pairs(ordered))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Cumulative right endpoints of the steps; the last one is 1."""
        return self._ends

    def value_at(self, t: Fraction) -> Fraction:
        t = Fraction(t)
        if not 0 <= t < 1:
            raise DomainError(f"scale evaluated outside [0,1): {t}")
        return self.steps[bisect_right(self._ends, t)][0]

    def serialize(self) -> dict:
        return {
            "steps": [
                {"value": format_ratstr(v), "length": format_ratstr(l)}
                for v, l in self.steps
            ]
        }


@dataclass(frozen=True)
class IncreasingScale:
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


@dataclass(frozen=True)
class MajorisationReport:
    holds: bool
    breakpoint_slacks: tuple[tuple[Fraction, Fraction], ...]
    total_gap: Fraction

    def serialize(self) -> dict:
        return {
            "holds": self.holds,
            "breakpoint_slacks": [
                {"t": format_ratstr(t), "slack": format_ratstr(s)}
                for t, s in self.breakpoint_slacks
            ],
            "total_gap": format_ratstr(self.total_gap),
        }


# ---------------------------------------------------------------------------
# scale constructions
# ---------------------------------------------------------------------------

def rearrange(f: SimpleFunction) -> StepScale:
    """The decreasing rearrangement: all (value, mass) carriers sorted by
    value descending, equal values merged. Equimeasurable with f.

    f keeps its scale once computed, so later calls return the same object."""
    if f._scale is None:
        object.__setattr__(f, "_scale", StepScale.from_pairs(f.weighted_values()))
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
    k = bisect_left(scale._ends, s)
    value, length = scale.steps[k]
    start = scale._ends[k] - length
    return scale._integrals[k] + value * (s - start)


def add_scales(a: StepScale, b: StepScale) -> StepScale:
    """Pointwise sum of two decreasing step functions: refine the breakpoint
    sets, add values, re-merge. The sum is again decreasing."""
    return StepScale(
        merge_pairs((va + vb, l) for va, vb, l in common_refinement(a.steps, b.steps))
    )


def steps_on_interval(
    scale: StepScale, lo: Fraction, hi: Fraction
) -> tuple[tuple[Fraction, Fraction], ...]:
    """The (value, length) profile of the scale restricted to [lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    out = []
    for k in range(bisect_right(scale._ends, lo), len(scale.steps)):
        value, length = scale.steps[k]
        end = scale._ends[k]
        cut_lo, cut_hi = max(end - length, lo), min(end, hi)
        if cut_lo >= cut_hi:
            break
        out.append((value, cut_hi - cut_lo))
    return tuple(out)


def scale_constant_on(scale: StepScale, t1: Fraction, t2: Fraction) -> Fraction | None:
    """The single value the scale takes on all of [t1, t2), or None."""
    if not 0 <= t1 < 1:
        return None
    k = bisect_right(scale._ends, t1)
    return scale.steps[k][0] if t2 <= scale._ends[k] else None


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def majorise_check(x: StepScale, y: StepScale) -> MajorisationReport:
    """Hardy-Littlewood-Polya order: cumulative of x never exceeds that of y,
    with equal totals. One walk over the common refinement of the two step
    lists carries the running slack; both cumulatives are linear on each
    refinement step, whose ends are the union of breakpoints, so checking
    the slack at those ends is exact and sufficient."""
    slacks = []
    t = slack = ZERO
    for x_value, y_value, length in common_refinement(x.steps, y.steps):
        t += length
        slack += (y_value - x_value) * length
        slacks.append((t, slack))
    holds = slack == 0 and all(s >= 0 for _, s in slacks)
    return MajorisationReport(holds, tuple(slacks), slack)


def submajorise_check(x: SimpleFunction, y: SimpleFunction) -> bool:
    """Weak (sub)majorisation of the singular value scales: partial integrals
    of |x|'s rearrangement never exceed |y|'s; no total-equality requirement."""
    report = majorise_check(singular_scale(x), singular_scale(y))
    return all(s >= 0 for _, s in report.breakpoint_slacks)
