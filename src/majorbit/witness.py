"""Constructive certificates that x is not extreme: x = (x+ + x-)/2 with
x+ != x- and both still majorised by y.

The direction u is supported on one or two level sets of x with integral
zero, and the step size is half of the exact supremum delta* for which
x +- delta*u stay in the orbit and the level ordering of x survives.
All constraints are linear in delta at finitely many breakpoints, so
delta* is computed exactly.
"""

from fractions import Fraction
from math import lcm

from .errors import CriterionSatisfied, DegenerateDirection, InternalError
from .measure import (
    ONE,
    ZERO,
    SimpleFunction,
    _Record,
    _require_same_space,
    common_refinement,
    serialize_function,
    serialize_space,
)
from .extremality import SINGLE_ATOM, _tag, evaluate_conditions
from .rationals import _reduced, format_ratstr
from .scales import _holds, _on_common, _rescaled, _slack_walk, rearrange

THREE_VALUES = "three_values"
TWO_VALUES = "two_values"
SPLIT_LEVEL = "split_level"


class Perturbation(_Record):
    u: SimpleFunction
    delta: Fraction
    case_tag: str


class WitnessPair(_Record):
    x_plus: SimpleFunction
    x_minus: SimpleFunction
    perturbation: Perturbation


def serialize_witness(w: WitnessPair) -> dict:
    space = serialize_space(w.x_plus.space)
    shared = space if w.x_minus.space == w.x_plus.space else None
    return {
        "x_plus": serialize_function(w.x_plus, space),
        "x_minus": serialize_function(w.x_minus, shared),
        "delta": format_ratstr(w.perturbation.delta),
        "case": w.perturbation.case_tag,
    }


def _cells(*fs: SimpleFunction) -> tuple[int, int, list[tuple[tuple[int, ...], int]]]:
    """Functions on one space cut into common carriers, the witness's frame
    (D, V, cells): a cell is the functions' value numerators over V, the lcm
    of their value denominators, and a mass numerator over D, the lcm of
    their mass denominators. Atoms in space order come first, then the
    common refinement of the piece lists."""
    for f in fs[1:]:
        _require_same_space(fs[0], f)
    n = len(fs[0].space.atom_ids)
    den, vden = lcm(*{f._masses[0] for f in fs}), lcm(*{f._values[0] for f in fs})
    carriers = [_rescaled(zip(f._values[1], f._masses[1]), vden // f._values[0], den // f._masses[0])
                for f in fs]
    cells = [(tuple(c[i][0] for c in carriers), carriers[0][i][1]) for i in range(n)]
    pieces = [((v,), m) for v, m in carriers[0][n:]]
    for c in carriers[1:]:
        pieces = [(vs + (v,), m) for vs, v, m in common_refinement(pieces, c[n:])]
    return den, vden, cells + pieces


def admissible_delta(x: SimpleFunction, y: SimpleFunction, u: SimpleFunction,
                     cells=None) -> Fraction:
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

    The walk is in integers, x's values and u's coefficients over one
    denominator with y's, so each bound is a plain ratio of integers: the
    bounds are compared by cross-multiplication and one Fraction is built
    at the end. ``cells`` is _cells(x, u), if already built.
    """
    den, vden, cells = cells or _cells(x, u)
    if all(vs[1] == 0 for vs, _ in cells):
        raise DegenerateDirection("u vanishes almost everywhere")
    y_den, y_vden, y_ints = rearrange(y)._profile
    common, common_v = lcm(den, y_den), lcm(vden, y_vden)
    y_ints = _rescaled(y_ints, common_v // y_vden, common // y_den)
    scale_v, scale_m = common_v // vden, common // den
    carriers = [(xv * scale_v, c * scale_v, m * scale_m) for (xv, c), m in cells]
    best = None  # (numerator, positive denominator) of the least bound

    def bound(num: int, div: int) -> None:
        nonlocal best
        if best is None or num * best[1] < best[0] * div:
            best = (num, div)

    for sign in (1, -1):
        blocks: dict[tuple[int, int], int] = {}
        for v, coeff, mass in carriers:
            key = (v, sign * coeff)
            blocks[key] = blocks.get(key, 0) + mass
        ordered = sorted(blocks.items(), reverse=True)

        for ((upper, c_up), _), ((lower, c_low), _) in zip(ordered, ordered[1:]):
            if c_low > c_up:
                bound(upper - lower, c_low - c_up)

        base = drift = rhs = 0
        for (v, signed_coeff), y_value, length in common_refinement(ordered, y_ints):
            base += v * length
            drift += signed_coeff * length
            rhs += y_value * length
            if drift > 0:
                bound(rhs - base, drift)
            elif base > rhs:
                # x itself violates the bound here: no positive step exists
                bound(0, 1)

    if best is None:
        raise InternalError("direction admits no binding constraint")
    num, div = best
    return Fraction(num, div) if num > 0 else ZERO


def _positive_run(slacks, k: int) -> tuple[int, int]:
    """The levels lo..hi-1 of x on which the slack is strictly positive
    around level k, read off evaluate_conditions' level-end slacks. The
    slack is concave on each level (y's scale decreases, x's is constant),
    so a positive stretch is a run of whole levels between zero ends."""
    lo, hi = k, k + 1
    while slacks[lo] > 0:
        lo -= 1
    while slacks[hi] > 0:
        hi += 1
    return lo, hi


def _indicator(x: SimpleFunction, plus, minus, ratio: Fraction) -> SimpleFunction:
    """Direction u = 1_plus - ratio * 1_minus on x's carriers, for sets of
    carrier indices (atoms in space order, then pieces)."""
    n, below = len(x.space.atom_ids), (-ratio.numerator, ratio.denominator)
    coeffs = [(1, 1) if i in plus else below if i in minus else (0, 1)
              for i in range(len(x._masses[1]))]
    pieces = tuple((c, mass) for c, (_, mass) in zip(coeffs[n:], x._pieces))
    return SimpleFunction._of(x.space, dict(zip(x.space.atom_ids, coeffs)), pieces, None, x._masses)


def _split_direction(x: SimpleFunction, level) -> SimpleFunction:
    """Split a level of x into two parts p1, p2 and return
    1_p1 - (mass(p1)/mass(p2)) 1_p2. p1 is the first atom in space order if
    the level holds any atom, else the first piece; a level consisting of a
    single diffuse piece is split into two equal-mass halves."""
    _, (first, *rest), length = level
    if not rest:
        index = first - len(x.space.atom_ids)
        if index < 0:
            raise InternalError("a single-atom level cannot be split")
        value, (num, den) = x._pieces[index]
        half = (value, (num, 2 * den) if num % 2 else (num // 2, den))
        pieces = x._pieces[:index] + (half, half) + x._pieces[index + 1:]
        return _indicator(SimpleFunction._of(x.space, x._atoms, pieces), {first}, {first + 1}, ONE)
    first_mass = x._masses[1][first]
    return _indicator(x, {first}, set(rest), Fraction(first_mass, length - first_mass))


def _moved(x: SimpleFunction, delta: Fraction, x_u_cells):
    """x +- delta*u as add_functions(x, scale_function(u, +-delta)) gives
    them, built on ints from _cells(x, u): for delta = p/q, their values
    x*q +- u*p over V*q, the cells' masses, and the reduced pairs of both."""
    (den, vden, cells), n = x_u_cells, len(x.space.atom_ids)
    p, q = delta.numerator, delta.denominator
    vden *= q
    masses = [m for _, m in cells]
    piece_masses = [_reduced(m, den) for m in masses[n:]]
    for sign in (1, -1):
        values = [xv * q + sign * c * p for (xv, c), _ in cells]
        pairs = [_reduced(v, vden) for v in values]
        yield SimpleFunction._of(x.space, dict(zip(x.space.atom_ids, pairs)),
                                 tuple(zip(pairs[n:], piece_masses)), (vden, values), (den, masses))


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
    conditions, slacks = evaluation
    if None not in conditions:
        raise CriterionSatisfied("x satisfies the extremality criterion")
    k = conditions.index(None)
    levels = x._table  # one level per constancy interval

    if _tag(levels[k][1], len(x.space.atom_ids)) != SINGLE_ATOM:
        u = _split_direction(x, levels[k])
        tag = SPLIT_LEVEL
    else:
        lo, hi = _positive_run(slacks, k)
        if hi - lo < 2:
            raise InternalError("single-atom violation with a one-level slack component")
        if hi - lo == 2:
            upper, lower = levels[lo], levels[lo + 1]
            tag = TWO_VALUES
        else:
            upper, lower = levels[lo + 1], levels[lo + 2]
            tag = THREE_VALUES
        ratio = Fraction(upper[2], lower[2])
        u = _indicator(x, set(upper[1]), set(lower[1]), ratio)

    cells = _cells(x, u)
    delta_sup = admissible_delta(x, y, u, cells)
    if delta_sup <= 0:
        raise InternalError("admissible step collapsed to zero on a violation")
    delta = delta_sup / 2
    pair = WitnessPair(*_moved(x, delta, cells), Perturbation(u, delta, tag))
    if not verify_witness(x, y, pair):
        raise InternalError("constructed witness failed verification")
    return pair


def verify_witness(x: SimpleFunction, y: SimpleFunction, w: WitnessPair) -> bool:
    """Exact verification: midpoint identity, distinctness, both
    majorisations, direction structure (integral zero, at most two levels),
    and locality of the scale change to the perturbed region [s1, s4), the
    union of the constancy intervals of the levels u touches. The pointwise
    checks are integer identities on the common carriers of x, u, x+, x-."""
    u, delta = w.perturbation.u, w.perturbation.delta
    if delta <= 0:
        return False
    _, vden, cells = _cells(x, u, w.x_plus, w.x_minus)
    p, q = delta.numerator, delta.denominator
    rows = [(xv * q, c * p, pv * q, mv * q) for (xv, c, pv, mv), _ in cells]
    if not all(xp == xv + shift and xm == xv - shift and xp + xm == 2 * xv
               for xv, shift, xp, xm in rows):
        return False
    if all(xp == xm for _, _, xp, xm in rows):
        return False
    to_x = vden // x._values[0]  # x's values back over x's own value denominator
    touched = {vs[0] // to_x for vs, _ in cells if vs[1]}
    if sum(vs[1] * mass for vs, mass in cells) != 0 or not 1 <= len(touched) <= 2:
        return False
    x_scale, y_scale = rearrange(x), rearrange(y)
    (x_den, _, x_steps), ends = x_scale._profile, x_scale._ends
    region = [(t2 - length, t2) for (value, length), t2 in zip(x_steps, ends) if value in touched]
    for perturbed in (w.x_plus, w.x_minus):
        p_scale = rearrange(perturbed)
        if not _holds(_slack_walk(p_scale, y_scale)[4]):
            return False
        den, _, p_ints, x_ints = _on_common(p_scale, x_scale)
        s1, s4 = (t * (den // x_den) for t in (region[0][0], region[-1][1]))
        t = 0
        for p_value, x_value, length in common_refinement(p_ints, x_ints):
            if p_value != x_value and (t < s1 or t + length > s4):
                return False
            t += length
    return True
