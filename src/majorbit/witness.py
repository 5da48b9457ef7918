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
    SimpleFunction,
    add_functions,
    common_refinement,
    equal_ae,
    scale_function,
    serialize_function,
)
from .extremality import evaluate_conditions
from .rationals import format_ratstr
from .scales import StepScale, cumulative, majorise_check, rearrange, steps_on_interval

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
    one linear constraint; ordering itself contributes one constraint per
    pair of levels moving towards each other.
    """
    carriers = _carriers(x, u)
    if all(coeff == 0 for _, coeff, _ in carriers):
        raise DegenerateDirection("u vanishes almost everywhere")
    y_scale = rearrange(y)
    bounds: list[Fraction] = []

    for i, (vi, ui, _) in enumerate(carriers):
        for vj, uj, _ in carriers[i + 1 :]:
            if vi == vj or ui == uj:
                continue
            hi, lo = (vi, vj) if vi > vj else (vj, vi)
            bounds.append((hi - lo) / abs(ui - uj))

    for sign in (1, -1):
        blocks: dict[tuple[Fraction, Fraction], Fraction] = {}
        for v, coeff, mass in carriers:
            key = (v, sign * coeff)
            blocks[key] = blocks.get(key, ZERO) + mass
        ordered = sorted(blocks.items(), key=lambda kv: kv[0], reverse=True)

        points = {ONE}
        acc = ZERO
        for _, mass in ordered:
            acc += mass
            points.add(acc)
        points.update(y_scale.breakpoints)

        for t in sorted(points):
            base = ZERO
            drift = ZERO
            acc = ZERO
            for (v, signed_coeff), mass in ordered:
                take = min(mass, t - acc)
                if take <= 0:
                    break
                base += v * take
                drift += signed_coeff * take
                acc += take
            rhs = cumulative(y_scale, t)
            if drift > 0:
                bounds.append((rhs - base) / drift)
            elif base > rhs:
                # x itself violates the bound at t: no positive step exists
                bounds.append(ZERO)

    if not bounds:
        raise InternalError("direction admits no binding constraint")
    return max(min(bounds), ZERO)


def _slack_components(x_scale: StepScale, y_scale: StepScale) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals on which the running slack
    s -> integral_0^s (scale of y - scale of x) is strictly positive."""
    points = sorted({ZERO, ONE} | set(x_scale.breakpoints) | set(y_scale.breakpoints))
    slack = {t: cumulative(y_scale, t) - cumulative(x_scale, t) for t in points}
    components: list[tuple[Fraction, Fraction]] = []
    open_start = None
    for left, right in zip(points, points[1:]):
        segment_positive = slack[left] > 0 or slack[right] > 0
        if segment_positive:
            if open_start is None or slack[left] == 0:
                if open_start is not None:
                    components.append((open_start, left))
                open_start = left
        else:
            if open_start is not None:
                components.append((open_start, left))
                open_start = None
    if open_start is not None:
        components.append((open_start, points[-1]))
    return components


def _indicator(
    x: SimpleFunction,
    plus_atoms: set,
    plus_pieces: dict,
    minus_atoms: set,
    minus_pieces: dict,
    ratio: Fraction,
    split: tuple | None = None,
) -> SimpleFunction:
    """Direction u = 1_(plus part) - ratio * 1_(minus part) on x's space.

    piece dicts map piece index -> coefficient applies to whole piece;
    ``split=(index, first_mass)`` splits that piece, giving +1 to the first
    sub-piece and -ratio to the second.
    """
    values = {}
    for aid in x.space.atom_ids:
        if aid in plus_atoms:
            values[aid] = ONE
        elif aid in minus_atoms:
            values[aid] = -ratio
        else:
            values[aid] = ZERO
    pieces = []
    for index, (_, mass) in enumerate(x.diffuse_pieces):
        if split is not None and index == split[0]:
            first = split[1]
            pieces.append((ONE, first))
            pieces.append((-ratio, mass - first))
        elif index in plus_pieces:
            pieces.append((ONE, mass))
        elif index in minus_pieces:
            pieces.append((-ratio, mass))
        else:
            pieces.append((ZERO, mass))
    return SimpleFunction(x.space, values, tuple(pieces))


def _level_direction(x: SimpleFunction, upper: Fraction, lower: Fraction, ratio: Fraction) -> SimpleFunction:
    plus_atoms = {a for a in x.space.atom_ids if x.atom_values[a] == upper}
    minus_atoms = {a for a in x.space.atom_ids if x.atom_values[a] == lower}
    plus_pieces = {i for i, (v, _) in enumerate(x.diffuse_pieces) if v == upper}
    minus_pieces = {i for i, (v, _) in enumerate(x.diffuse_pieces) if v == lower}
    return _indicator(x, plus_atoms, plus_pieces, minus_atoms, minus_pieces, ratio)


def _split_direction(x: SimpleFunction, value: Fraction) -> SimpleFunction:
    """Split the level set {x = value} into two parts p1, p2 and return
    1_p1 - (mass(p1)/mass(p2)) 1_p2. p1 is the first atom in space order if
    the level holds any atom, else the first piece; a level consisting of a
    single diffuse piece is split into two equal-mass halves."""
    atoms = [
        (aid, w) for aid, w in x.space.atoms if x.atom_values[aid] == value
    ]
    pieces = [
        (i, mass) for i, (v, mass) in enumerate(x.diffuse_pieces) if v == value
    ]
    carriers = len(atoms) + len(pieces)
    if carriers == 0:
        raise InternalError("level set is empty")
    if carriers == 1:
        if not pieces:
            raise InternalError("a single-atom level cannot be split")
        index, mass = pieces[0]
        return _indicator(x, set(), {}, set(), {}, ONE, split=(index, mass / 2))
    if atoms:
        first_mass = atoms[0][1]
        plus_atoms, rest_atoms = {atoms[0][0]}, {a for a, _ in atoms[1:]}
        rest_pieces = {i for i, _ in pieces}
    else:
        first_mass = pieces[0][1]
        plus_atoms, rest_atoms = set(), set()
        rest_pieces = {i for i, _ in pieces[1:]}
    plus_pieces = set() if atoms else {pieces[0][0]}
    rest_mass = sum(
        (w for a, w in atoms if a in rest_atoms),
        sum((m for i, m in pieces if i in rest_pieces), ZERO),
    )
    ratio = first_mass / rest_mass
    return _indicator(x, plus_atoms, plus_pieces, rest_atoms, rest_pieces, ratio)


def build_witness(x: SimpleFunction, y: SimpleFunction) -> WitnessPair:
    """Construct a verified witness pair for a criterion-violating (x, y).

    The leftmost violating constancy interval picks the construction: a
    non-atomic level is split in place; a single-atom level is handled by
    balancing two adjacent levels of the strict-slack component around it.
    """
    intervals, conditions, x_scale, y_scale = evaluate_conditions(x, y)
    violating = [iv for iv, c in zip(intervals, conditions) if c is None]
    if not violating:
        raise CriterionSatisfied("x satisfies the extremality criterion")
    target = violating[0]

    if not target.kind.is_single_atom:
        u = _split_direction(x, target.value)
        tag = SPLIT_LEVEL
    else:
        components = _slack_components(x_scale, y_scale)
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
        u = _level_direction(x, upper.value, lower.value, upper.length / lower.length)

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


def _perturbed_region(x: SimpleFunction, u: SimpleFunction) -> tuple[Fraction, Fraction]:
    """[s1, s4): union of the constancy intervals of the levels u touches."""
    touched = {v for v, coeff, _ in _carriers(x, u) if coeff != 0}
    lo, hi, acc = None, None, ZERO
    for value, length in rearrange(x).steps:
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
    y_scale = rearrange(y)
    if not majorise_check(rearrange(w.x_plus), y_scale).holds:
        return False
    if not majorise_check(rearrange(w.x_minus), y_scale).holds:
        return False
    s1, s4 = _perturbed_region(x, u)
    x_scale = rearrange(x)
    for perturbed in (w.x_plus, w.x_minus):
        p_scale = rearrange(perturbed)
        if steps_on_interval(p_scale, ZERO, s1) != steps_on_interval(x_scale, ZERO, s1):
            return False
        if steps_on_interval(p_scale, s4, ONE) != steps_on_interval(x_scale, s4, ONE):
            return False
    return True
