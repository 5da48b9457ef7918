"""Constructive certificates that x is not extreme: x = (x+ + x-)/2 with
x+ != x- and both still majorised by y.

The direction u is supported on one or two level sets of x with integral
zero, and the step size is half of the exact supremum delta* for which
x +- delta*u stay in the orbit and the level ordering of x survives.
All constraints are linear in delta at finitely many breakpoints, so
delta* is computed exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CriterionSatisfied, DegenerateDirection, InternalError
from .measure import (
    ONE,
    ZERO,
    Refinement,
    SimpleFunction,
    add_functions,
    common_refinement,
    equal_ae,
    scale_function,
    serialize_function,
)
from .extremality import evaluate_conditions
from .rationals import format_ratstr
from .scales import MajorisationReport, StepScale, majorise_check, rearrange, steps_on_interval

THREE_VALUES = "three_values"
TWO_VALUES = "two_values"
SPLIT_LEVEL = "split_level"


@dataclass(frozen=True)
class Perturbation:
    u: SimpleFunction
    delta: Fraction
    case_tag: str


@dataclass(frozen=True)
class WitnessPair:
    x_plus: SimpleFunction
    x_minus: SimpleFunction
    perturbation: Perturbation


def serialize_witness(w: WitnessPair) -> dict:
    return {
        "x_plus": serialize_function(w.x_plus),
        "x_minus": serialize_function(w.x_minus),
        "delta": format_ratstr(w.perturbation.delta),
        "case": w.perturbation.case_tag,
    }


def _carriers(x: SimpleFunction, u: SimpleFunction) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(x value, u coefficient, mass) triples: atoms in space order, then
    the common refinement of the two piece lists."""
    out = [
        (x.atom_values[aid], u.atom_values[aid], w) for aid, w in x.space.atoms
    ]
    out.extend(common_refinement(x.diffuse_pieces, u.diffuse_pieces))
    return out


def admissible_delta(x: SimpleFunction, y: SimpleFunction, u: SimpleFunction) -> Fraction:
    """Exact supremum of delta >= 0 with x + delta*u and x - delta*u both
    majorised by y and the strict ordering of x's levels preserved.

    While the ordering persists, the rearranged cumulative of x +- delta*u
    at any fixed mass t is linear in delta, so each breakpoint contributes
    one linear constraint. The breakpoints are the ends of the common
    refinement of the perturbed blocks and y's scale, so one walk over it
    carries both cumulatives. Sorted by (value, signed coefficient), the
    blocks are in the order of x +- delta*u for small delta > 0; blocks of
    one level only move apart, and the first two blocks to meet are
    adjacent in that order, so the ordering bound is read off adjacent
    blocks that close in.
    """
    carriers = _carriers(x, u)
    if all(coeff == 0 for _, coeff, _ in carriers):
        raise DegenerateDirection("u vanishes almost everywhere")
    y_scale = rearrange(y)
    bounds: list[Fraction] = []

    for sign in (1, -1):
        blocks: dict[tuple[Fraction, Fraction], Fraction] = {}
        for v, coeff, mass in carriers:
            key = (v, sign * coeff)
            blocks[key] = blocks.get(key, ZERO) + mass
        ordered = sorted(blocks.items(), key=lambda kv: kv[0], reverse=True)

        for ((upper, c_up), _), ((lower, c_low), _) in zip(ordered, ordered[1:]):
            if c_low > c_up:
                bounds.append((upper - lower) / (c_low - c_up))

        base = drift = rhs = ZERO
        for (v, signed_coeff), y_value, length in common_refinement(ordered, y_scale.steps):
            base += v * length
            drift += signed_coeff * length
            rhs += y_value * length
            if drift > 0:
                bounds.append((rhs - base) / drift)
            elif base > rhs:
                # x itself violates the bound here: no positive step exists
                bounds.append(ZERO)

    if not bounds:
        raise InternalError("direction admits no binding constraint")
    return max(min(bounds), ZERO)


def _slack_components(report: MajorisationReport) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals on which the running slack
    s -> integral_0^s (scale of y - scale of x) is strictly positive, read
    off the report of majorise_check(scale of x, scale of y)."""
    points = [(ZERO, ZERO), *report.breakpoint_slacks]
    components: list[tuple[Fraction, Fraction]] = []
    open_start = None
    for (left, left_slack), (_, right_slack) in zip(points, points[1:]):
        segment_positive = left_slack > 0 or right_slack > 0
        if segment_positive:
            if open_start is None or left_slack == 0:
                if open_start is not None:
                    components.append((open_start, left))
                open_start = left
        else:
            if open_start is not None:
                components.append((open_start, left))
                open_start = None
    if open_start is not None:
        components.append((open_start, points[-1][0]))
    return components


def _indicator(x: SimpleFunction, plus: tuple, minus: tuple, ratio: Fraction) -> SimpleFunction:
    """Direction u = 1_plus - ratio * 1_minus on x's space. Each set is a
    pair (atom ids, piece indices), as SimpleFunction.level_set returns."""

    def coefficient(key, plus_keys, minus_keys) -> Fraction:
        if key in plus_keys:
            return ONE
        return -ratio if key in minus_keys else ZERO

    values = {aid: coefficient(aid, plus[0], minus[0]) for aid in x.space.atom_ids}
    pieces = tuple(
        (coefficient(index, plus[1], minus[1]), mass)
        for index, (_, mass) in enumerate(x.diffuse_pieces)
    )
    return SimpleFunction(x.space, values, pieces)


def _split_direction(x: SimpleFunction, value: Fraction) -> SimpleFunction:
    """Split the level set {x = value} into two parts p1, p2 and return
    1_p1 - (mass(p1)/mass(p2)) 1_p2. p1 is the first atom in space order if
    the level holds any atom, else the first piece; a level consisting of a
    single diffuse piece is split into two equal-mass halves."""
    atoms, pieces = x.level_set(value)
    carriers = len(atoms) + len(pieces)
    if carriers == 0:
        raise InternalError("level set is empty")
    if carriers == 1:
        if not pieces:
            raise InternalError("a single-atom level cannot be split")
        index = pieces[0]
        half = x.diffuse_pieces[index][1] / 2
        halved = Refinement(x, {index: (half, half)}).apply()
        return _indicator(halved, ((), (index,)), ((), (index + 1,)), ONE)
    weights = dict(x.space.atoms)
    masses = [weights[aid] for aid in atoms] + [x.diffuse_pieces[i][1] for i in pieces]
    if atoms:
        plus, minus = (atoms[:1], ()), (atoms[1:], pieces)
    else:
        plus, minus = ((), pieces[:1]), ((), pieces[1:])
    return _indicator(x, plus, minus, masses[0] / sum(masses[1:], ZERO))


def build_witness(x: SimpleFunction, y: SimpleFunction) -> WitnessPair:
    """Construct a verified witness pair for a criterion-violating (x, y)."""
    return _witness_from(x, y, evaluate_conditions(x, y))


def _witness_from(x: SimpleFunction, y: SimpleFunction, evaluation) -> WitnessPair:
    """The witness pair of build_witness from the result of
    evaluate_conditions(x, y), so that a caller holding it evaluates once.

    The leftmost violating constancy interval picks the construction: a
    non-atomic level is split in place; a single-atom level is handled by
    balancing two adjacent levels of the strict-slack component around it.
    """
    intervals, conditions, report = evaluation
    violating = [iv for iv, c in zip(intervals, conditions) if c is None]
    if not violating:
        raise CriterionSatisfied("x satisfies the extremality criterion")
    target = violating[0]

    if not target.kind.is_single_atom:
        u = _split_direction(x, target.value)
        tag = SPLIT_LEVEL
    else:
        components = _slack_components(report)
        home = [
            (a, b) for a, b in components if a <= target.t1 and target.t2 <= b
        ]
        if not home:
            raise InternalError("violating interval has no strict-slack component")
        a, b = home[0]
        inside = [iv for iv in intervals if a <= iv.t1 and iv.t2 <= b]
        if len(inside) < 2:
            raise InternalError(
                "single-atom violation with a one-level slack component"
            )
        if len(inside) == 2:
            upper, lower = inside[0], inside[1]
            tag = TWO_VALUES
        else:
            upper, lower = inside[1], inside[2]
            tag = THREE_VALUES
        ratio = upper.length / lower.length
        u = _indicator(x, x.level_set(upper.value), x.level_set(lower.value), ratio)

    delta_sup = admissible_delta(x, y, u)
    if delta_sup <= 0:
        raise InternalError("admissible step collapsed to zero on a violation")
    delta = delta_sup / 2
    pair = WitnessPair(
        add_functions(x, scale_function(u, delta)),
        add_functions(x, scale_function(u, -delta)),
        Perturbation(u, delta, tag),
    )
    if not verify_witness(x, y, pair):
        raise InternalError("constructed witness failed verification")
    return pair


def _perturbed_region(x_scale: StepScale, touched: set) -> tuple[Fraction, Fraction]:
    """[s1, s4): union of the constancy intervals of the touched levels."""
    lo, hi, acc = None, None, ZERO
    for value, length in x_scale.steps:
        if value in touched:
            if lo is None:
                lo = acc
            hi = acc + length
        acc += length
    if lo is None:
        raise InternalError("direction touches no level of x")
    return lo, hi


def verify_witness(x: SimpleFunction, y: SimpleFunction, w: WitnessPair) -> bool:
    """Exact verification: midpoint identity, distinctness, both
    majorisations, direction structure (integral zero, at most two levels),
    and locality of the scale change to the perturbed region."""
    u, delta = w.perturbation.u, w.perturbation.delta
    if delta <= 0:
        return False
    if not equal_ae(w.x_plus, add_functions(x, scale_function(u, delta))):
        return False
    if not equal_ae(w.x_minus, add_functions(x, scale_function(u, -delta))):
        return False
    mid = scale_function(add_functions(w.x_plus, w.x_minus), Fraction(1, 2))
    if not equal_ae(mid, x) or equal_ae(w.x_plus, w.x_minus):
        return False
    if u.integral() != 0:
        return False
    touched = {v for v, coeff, _ in _carriers(x, u) if coeff != 0}
    if not 1 <= len(touched) <= 2:
        return False
    x_scale, y_scale = rearrange(x), rearrange(y)
    s1, s4 = _perturbed_region(x_scale, touched)
    for perturbed in (w.x_plus, w.x_minus):
        p_scale = rearrange(perturbed)
        if not majorise_check(p_scale, y_scale).holds:
            return False
        if steps_on_interval(p_scale, ZERO, s1) != steps_on_interval(x_scale, ZERO, s1):
            return False
        if steps_on_interval(p_scale, s4, ONE) != steps_on_interval(x_scale, s4, ONE):
            return False
    return True
