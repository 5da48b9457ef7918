"""The Fraction formulations of the exact core, kept as the differential
reference for the integer carrier table.

Each function below is the Fraction-arithmetic version of the library
function of the same name (for a scale, its ends and prefix integrals
are summed here from its steps). The library computes on integer
numerators over common denominators; on every input both must give the
same Fractions, verdicts, reports and witnesses. ``_slack_components``
reads the strictly positive stretches of the slack off the Fraction
report, where the library reads them as runs of levels between zero
level-end slacks (``witness._positive_run``).

``gray_oracle`` keeps the 2^n Gray-code walk over the subset constraints
that ``orbit.oracle_extreme``'s count over y's supporting lines replaced,
and ``perturbation_search_finds_witness`` the randomized direction search
that the halved-level model replaced in criterion 5, as their references.

``ScalarGauss`` keeps the one-call-per-deviate Box-Muller that
``SplitMix64.normals`` replaced, as its reference.

The reference merges step lists with its own Fraction walk, ``merge``, and
folds denominators with ``math.lcm``, so a fault in the library's merge or
fold does not reach both sides of a differential test. It still reaches the
library through the public ``add_functions``, ``equal_ae`` and
``Refinement``.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from majorbit.errors import (
    CriterionSatisfied,
    DegenerateDirection,
    InternalError,
    MassMismatchError,
    NotInOrbit,
    ValueNotAttained,
)
from majorbit.extremality import (
    DIFFUSE,
    MIXED,
    MULTIPLE_ATOMS,
    SINGLE_ATOM,
    ConstancyInterval,
    ExtremalityVerdict,
    LevelKind,
)
from majorbit.measure import (
    ONE,
    ZERO,
    Refinement,
    SimpleFunction,
    add_functions,
    equal_ae,
    scale_function,
)
from majorbit.prng import SplitMix64
from majorbit.scales import MajorisationReport, StepScale
from majorbit.witness import (
    SPLIT_LEVEL,
    THREE_VALUES,
    TWO_VALUES,
    Perturbation,
    WitnessPair,
)

# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------


def merge(a, b) -> list:
    """(a value, b value, length) over the common refinement of two lists of
    (value, length) steps laid end to end: a two-pointer walk over their
    running ends, which must meet at one total."""
    out, t, i, j = [], ZERO, 0, 0
    a_end, b_end = (steps[0][1] if steps else ZERO for steps in (a, b))
    while i < len(a) and j < len(b):
        end = min(a_end, b_end)
        out.append((a[i][0], b[j][0], end - t))
        t = end
        if a_end == end:
            i += 1
            a_end += a[i][1] if i < len(a) else ZERO
        if b_end == end:
            j += 1
            b_end += b[j][1] if j < len(b) else ZERO
    if i < len(a) or j < len(b):
        raise MassMismatchError("step lists cover different total lengths")
    return out


def rearrange(f: SimpleFunction) -> StepScale:
    return StepScale.from_pairs(f.weighted_values())


def profile(scale: StepScale) -> tuple[list[Fraction], list[Fraction]]:
    """The right end of each step and the integral over [0, start of each step)."""
    ends, integrals, total, integral = [], [], ZERO, ZERO
    for value, length in scale.steps:
        integrals.append(integral)
        integral += value * length
        total += length
        ends.append(total)
    return ends, integrals


def value_at(scale: StepScale, t: Fraction) -> Fraction:
    return scale.steps[bisect_right(profile(scale)[0], Fraction(t))][0]


def cumulative(scale: StepScale, s: Fraction) -> Fraction:
    s = Fraction(s)
    ends, integrals = profile(scale)
    k = bisect_left(ends, s)
    value, length = scale.steps[k]
    return integrals[k] + value * (s - (ends[k] - length))


def steps_on_interval(scale: StepScale, lo: Fraction, hi: Fraction):
    """The (value, length) profile of the scale restricted to [lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    ends = profile(scale)[0]
    out = []
    for k in range(bisect_right(ends, lo), len(scale.steps)):
        value, length = scale.steps[k]
        cut_lo, cut_hi = max(ends[k] - length, lo), min(ends[k], hi)
        if cut_lo >= cut_hi:
            break
        out.append((value, cut_hi - cut_lo))
    return tuple(out)


def scale_constant_on(scale: StepScale, t1: Fraction, t2: Fraction) -> Fraction | None:
    if not 0 <= t1 < 1:
        return None
    ends = profile(scale)[0]
    k = bisect_right(ends, t1)
    return scale.steps[k][0] if t2 <= ends[k] else None


def majorise_check(x: StepScale, y: StepScale) -> MajorisationReport:
    slacks = []
    t = slack = ZERO
    for x_value, y_value, length in merge(x.steps, y.steps):
        t += length
        slack += (y_value - x_value) * length
        slacks.append((t, slack))
    holds = slack == 0 and all(s >= 0 for _, s in slacks)
    return MajorisationReport(holds, tuple(slacks), slack)


# ---------------------------------------------------------------------------
# the criterion
# ---------------------------------------------------------------------------


def level_set(x: SimpleFunction, value: Fraction) -> tuple[tuple, tuple[int, ...]]:
    """The atom ids (in space order) and the diffuse piece indices where x
    equals ``value``."""
    return (
        tuple(aid for aid in x.space.atom_ids if x.atom_values[aid] == value),
        tuple(i for i, (v, _) in enumerate(x.diffuse_pieces) if v == value),
    )


def classify_level(x: SimpleFunction, v: Fraction) -> LevelKind:
    atom_ids, pieces = level_set(x, Fraction(v))
    if not atom_ids and not pieces:
        raise ValueNotAttained(f"{v} is not a value of the function")
    if atom_ids and pieces:
        return LevelKind(MIXED, atom_ids)
    if not atom_ids:
        return LevelKind(DIFFUSE)
    if len(atom_ids) == 1:
        return LevelKind(SINGLE_ATOM, atom_ids)
    return LevelKind(MULTIPLE_ATOMS, atom_ids)


def constancy_intervals(x: SimpleFunction) -> tuple[ConstancyInterval, ...]:
    out = []
    acc = ZERO
    for value, length in rearrange(x).steps:
        out.append(ConstancyInterval(acc, acc + length, value, classify_level(x, value)))
        acc += length
    return tuple(out)


def evaluate_conditions(x: SimpleFunction, y: SimpleFunction):
    y_scale = rearrange(y)
    report = majorise_check(rearrange(x), y_scale)
    if not report.holds:
        raise NotInOrbit("x is not majorised by y")
    intervals = constancy_intervals(x)
    conditions = []
    for iv in intervals:
        if scale_constant_on(y_scale, iv.t1, iv.t2) == iv.value:
            conditions.append(1)
        elif (
            iv.kind.is_single_atom
            and cumulative(y_scale, iv.t2) - cumulative(y_scale, iv.t1)
            == iv.value * iv.length
        ):
            conditions.append(2)
        else:
            conditions.append(None)
    return intervals, tuple(conditions), report


def check_extreme(x: SimpleFunction, y: SimpleFunction) -> ExtremalityVerdict:
    evaluation = evaluate_conditions(x, y)
    intervals, conditions, _ = evaluation
    if all(c is not None for c in conditions):
        return ExtremalityVerdict(True, intervals, conditions)
    return ExtremalityVerdict(False, intervals, conditions, _witness_from(x, y, evaluation))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def carriers(x: SimpleFunction, u: SimpleFunction):
    """(x value, u coefficient, mass) triples: atoms in space order, then
    the common refinement of the two piece lists."""
    out = [(x.atom_values[aid], u.atom_values[aid], w) for aid, w in x.space.atoms]
    out.extend(merge(x.diffuse_pieces, u.diffuse_pieces))
    return out


def admissible_delta(x: SimpleFunction, y: SimpleFunction, u: SimpleFunction) -> Fraction:
    cells = carriers(x, u)
    if all(coeff == 0 for _, coeff, _ in cells):
        raise DegenerateDirection("u vanishes almost everywhere")
    y_scale = rearrange(y)
    bounds = []
    for sign in (1, -1):
        blocks = {}
        for v, coeff, mass in cells:
            key = (v, sign * coeff)
            blocks[key] = blocks.get(key, ZERO) + mass
        ordered = sorted(blocks.items(), key=lambda kv: kv[0], reverse=True)
        for ((upper, c_up), _), ((lower, c_low), _) in zip(ordered, ordered[1:]):
            if c_low > c_up:
                bounds.append((upper - lower) / (c_low - c_up))
        base = drift = rhs = ZERO
        for (v, signed_coeff), y_value, length in merge(ordered, y_scale.steps):
            base += v * length
            drift += signed_coeff * length
            rhs += y_value * length
            if drift > 0:
                bounds.append((rhs - base) / drift)
            elif base > rhs:
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
        if left_slack > 0 or right_slack > 0:
            if open_start is None or left_slack == 0:
                if open_start is not None:
                    components.append((open_start, left))
                open_start = left
        elif open_start is not None:
            components.append((open_start, left))
            open_start = None
    if open_start is not None:
        components.append((open_start, points[-1][0]))
    return components


def _indicator(x, plus, minus, ratio):
    def coefficient(key, plus_keys, minus_keys):
        if key in plus_keys:
            return ONE
        return -ratio if key in minus_keys else ZERO

    values = {aid: coefficient(aid, plus[0], minus[0]) for aid in x.space.atom_ids}
    pieces = tuple(
        (coefficient(index, plus[1], minus[1]), mass)
        for index, (_, mass) in enumerate(x.diffuse_pieces)
    )
    return SimpleFunction(x.space, values, pieces)


def _split_direction(x, value):
    atoms, pieces = level_set(x, value)
    if len(atoms) + len(pieces) == 1:
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
    return _witness_from(x, y, evaluate_conditions(x, y))


def _witness_from(x, y, evaluation) -> WitnessPair:
    intervals, conditions, report = evaluation
    violating = [iv for iv, c in zip(intervals, conditions) if c is None]
    if not violating:
        raise CriterionSatisfied("x satisfies the extremality criterion")
    target = violating[0]
    if not target.kind.is_single_atom:
        u = _split_direction(x, target.value)
        tag = SPLIT_LEVEL
    else:
        home = [(a, b) for a, b in _slack_components(report)
                if a <= target.t1 and target.t2 <= b]
        if not home:
            raise InternalError("violating interval has no strict-slack component")
        a, b = home[0]
        inside = [iv for iv in intervals if a <= iv.t1 and iv.t2 <= b]
        if len(inside) < 2:
            raise InternalError("single-atom violation with a one-level slack component")
        if len(inside) == 2:
            upper, lower = inside[0], inside[1]
            tag = TWO_VALUES
        else:
            upper, lower = inside[1], inside[2]
            tag = THREE_VALUES
        ratio = upper.length / lower.length
        u = _indicator(x, level_set(x, upper.value), level_set(x, lower.value), ratio)
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


def perturbed_region(x_scale: StepScale, touched: set) -> tuple[Fraction, Fraction]:
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
    touched = {v for v, coeff, _ in carriers(x, u) if coeff != 0}
    if not 1 <= len(touched) <= 2:
        return False
    x_scale, y_scale = rearrange(x), rearrange(y)
    s1, s4 = perturbed_region(x_scale, touched)
    for perturbed in (w.x_plus, w.x_minus):
        p_scale = rearrange(perturbed)
        if not majorise_check(p_scale, y_scale).holds:
            return False
        if steps_on_interval(p_scale, ZERO, s1) != steps_on_interval(x_scale, ZERO, s1):
            return False
        if steps_on_interval(p_scale, s4, ONE) != steps_on_interval(x_scale, s4, ONE):
            return False
    return True

# ---------------------------------------------------------------------------
# orbit: the 2^n Gray-code vertex walk and the perturbation search
# ---------------------------------------------------------------------------
#
# On a space of n atoms the orbit of y is the polytope cut out by one
# inequality per nonempty atom subset S, sum_{i in S} w_i x_i <=
# cumulative_y(w(S)), with equality at the full set. x is a vertex iff the
# 0/1 indicators of the constraints tight at x span n dimensions. The walk
# scales every quantity to integers, visits the subsets in reflected Gray
# order (one atom enters or leaves per step, so the subset's mass and
# weighted sum each change by one add), and lets every tight indicator
# shrink an integer null-space basis; x is a vertex iff the basis empties.


def gray_oracle(x: SimpleFunction, y: SimpleFunction) -> bool:
    """The vertex test by the Gray-code walk, for x in the orbit of y on a
    purely atomic space."""
    assert x.space.purely_atomic
    return _tight_sets_span(x, rearrange(y))


def _tight_sets_span(x: SimpleFunction, y_scale: StepScale) -> bool:
    """The Gray-code walk of the module docstring, for x in the orbit."""
    n = len(x.space.atoms)
    # masses are ints over den, x's values ints over its value fold's vden; on
    # y's step k, with both sides scaled by den * vden * y_den * y_vden,
    # the bound at a subset's mass is offsets[k] + slopes[k] * mass
    den = lcm(*(w.denominator for _, w in x.space.atoms))
    masses = [w.numerator * (den // w.denominator) for _, w in x.space.atoms]
    vden, values = x._values
    y_den, y_vden, y_ints = y_scale._profile
    # an int mass lies at or before a step end iff it lies at or before its floor
    ends = [end * den // y_den for end in y_scale._ends]
    integrals = accumulate((value * length for value, length in y_ints), initial=0)
    offsets = [vden * den * (integral - value * (end - length))
               for integral, end, (value, length) in zip(integrals, y_scale._ends, y_ints)]
    slopes = [vden * y_den * value for value, _ in y_ints]
    sums = [mass * value * y_den * y_vden for mass, value in zip(masses, values)]
    basis = [{i: 1} for i in range(n)]  # sparse null vectors of the tight indicators
    live = (1 << n) - 1  # union of their supports
    subset = mass = total = 0
    for step in range(1, 1 << n):
        i = (step & -step).bit_length() - 1
        subset ^= 1 << i
        sign = 1 if subset >> i & 1 else -1
        mass += sign * masses[i]
        total += sign * sums[i]
        if not subset & live:
            continue
        k = bisect_left(ends, mass)
        if total != offsets[k] + slopes[k] * mass:
            continue
        dots = [sum(c for j, c in z.items() if subset >> j & 1) for z in basis]
        pivot = next((j for j, d in enumerate(dots) if d), None)
        if pivot is None:
            continue
        z0, d0 = basis.pop(pivot), dots.pop(pivot)
        if not basis:
            return True
        basis = [_eliminate(z, d, z0, d0) if d else z for z, d in zip(basis, dots)]
        live = sum({1 << j for z in basis for j in z})
    return False


def _eliminate(z: dict, d: int, z0: dict, d0: int) -> dict:
    """For null vectors z and z0 whose dot products with a tight indicator
    are d and d0: d0*z - d*z0, which is orthogonal to that indicator,
    divided by the gcd of its entries, zero entries dropped."""
    z = {j: d0 * z.get(j, 0) - d * z0.get(j, 0) for j in z.keys() | z0.keys()}
    g = gcd(*z.values())
    return {j: c // g for j, c in z.items() if c}


def perturbation_search_finds_witness(
    x: SimpleFunction, y: SimpleFunction, rng: SplitMix64, attempts: int = 100
) -> bool:
    """Bounded randomized search for x +- delta*u inside the orbit: returns
    True iff some direction and dyadic step keep both signs majorised."""
    y_scale = rearrange(y)
    carriers = x.weighted_values()
    n_atoms = len(x.space.atoms)
    for _ in range(attempts):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in carriers]
        total = sum(c * m for c, (_, m) in zip(coeffs, carriers))
        coeffs = [c - total for c in coeffs]  # total mass is 1, so integral is 0
        if all(c == 0 for c in coeffs):
            continue
        values = {
            aid: coeffs[i] for i, aid in enumerate(x.space.atom_ids)
        }
        pieces = tuple(
            (coeffs[n_atoms + j], m) for j, (_, m) in enumerate(x.diffuse_pieces)
        )
        u = SimpleFunction(x.space, values, pieces)
        delta = Fraction(1)
        for _ in range(12):
            plus = add_functions(x, scale_function(u, delta))
            minus = add_functions(x, scale_function(u, -delta))
            if (
                majorise_check(rearrange(plus), y_scale).holds
                and majorise_check(rearrange(minus), y_scale).holds
            ):
                return True
            delta /= 2
    return False


# ---------------------------------------------------------------------------
# Gaussian draws
# ---------------------------------------------------------------------------


class ScalarGauss(SplitMix64):
    def gauss(self) -> float:
        """Standard normal via Box-Muller, caching the spare deviate."""
        if self._spare_gauss is not None:
            value, self._spare_gauss = self._spare_gauss, None
            return value
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)
