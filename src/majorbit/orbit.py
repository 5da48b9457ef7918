"""Independent ground truth for the orbit on purely atomic spaces.

On a space of n atoms the orbit of y is the polytope cut out by one
inequality per nonempty atom subset S,

    sum_{i in S} w_i x_i  <=  cumulative_y(w(S)),

together with equality at the full set. x is a vertex iff the normals of
the constraints tight at x span n dimensions; scaling column i by
w_i > 0 is invertible, so their 0/1 indicators span as well. The oracle
scales every quantity to integers, walks the subsets in reflected Gray
order (one atom enters or leaves per step, so the subset's mass and
weighted sum each change by one add), and lets every tight indicator
shrink an integer null-space basis; x is a vertex iff the basis empties.
This module contains no floating point at all and shares no logic with
the per-interval criterion it cross-checks.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import InternalError, NotAtomic, NotInOrbit, SchemaError, SizeLimit, UnknownAtomError
from .measure import ZERO, SimpleFunction
from .prng import SplitMix64
from .scales import StepScale, cumulative, majorise_check, rearrange, scale_constant_on

MAX_ORACLE_ATOMS = 20
MAX_ENUMERATE_ATOMS = 6


def oracle_extreme(x: SimpleFunction, y: SimpleFunction) -> bool:
    """Vertex test: x is extreme iff the indicators of its tight subset
    constraints span n dimensions. Exact, and independent of the
    per-interval criterion."""
    if not x.space.purely_atomic:
        raise NotAtomic("oracle requires a purely atomic space")
    n = len(x.space.atoms)
    if n > MAX_ORACLE_ATOMS:
        raise SizeLimit(f"{n} atoms exceed the 2^n enumeration limit")
    y_scale = rearrange(y)
    if not majorise_check(rearrange(x), y_scale).holds:
        raise NotInOrbit("x is not majorised by y")
    return _tight_sets_span(x, y_scale)


def _tight_sets_span(x: SimpleFunction, y_scale: StepScale) -> bool:
    """The Gray-code walk of the module docstring, for x in the orbit."""
    atoms = x.space.atoms
    n = len(atoms)
    # masses become ints over the common weight denominator; on y's step k,
    # cumulative_y(mass / denominator) = offsets[k] + slopes[k] * mass
    denominator = lcm(*(w.denominator for _, w in atoms))
    masses = [int(w * denominator) for _, w in atoms]
    # an int mass lies at or before a step end iff it lies at or before its floor
    y_den, y_vden, y_ints = y_scale._profile
    ends = [end * denominator // y_den for end in y_scale._ends]
    integrals = accumulate((value * length for value, length in y_ints), initial=0)
    offsets = [Fraction(integral - value * (end - length), y_den * y_vden)
               for integral, end, (value, length) in zip(integrals, y_scale._ends, y_ints)]
    slopes = [Fraction(value, y_vden * denominator) for value, _ in y_ints]
    sums = [w * x.atom_values[aid] for aid, w in atoms]
    common = lcm(*(q.denominator for q in offsets + slopes + sums))
    offsets, slopes, sums = ([int(q * common) for q in qs] for qs in (offsets, slopes, sums))
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


def enumerate_extreme(y: SimpleFunction) -> list[SimpleFunction]:
    """All extreme points of the orbit of y on its (atomic) space.

    Recursive construction over [0,1): at cursor t either place an unused
    atom whose span tiles a constant run of y's scale (condition 1), or
    place one unused atom with the average of y's scale over its span
    (condition 2), keeping values non-increasing. Every move closes the
    cumulative gap exactly, so candidates are automatically in the orbit;
    the vertex rank test then filters the extreme ones.
    """
    if not y.space.purely_atomic:
        raise NotAtomic("enumeration requires a purely atomic space")
    atoms = y.space.atoms
    n = len(atoms)
    if n > MAX_ENUMERATE_ATOMS:
        raise SizeLimit(f"{n} atoms exceed the enumeration limit")
    y_scale = rearrange(y)
    seen: set[tuple] = set()
    results: list[SimpleFunction] = []

    def place(remaining: frozenset, cursor: Fraction, prev: Fraction | None, chosen: dict):
        if not remaining:
            key = tuple(chosen[aid] for aid, _ in atoms)
            if key in seen:
                return
            seen.add(key)
            candidate = SimpleFunction(y.space, dict(chosen))
            if not majorise_check(rearrange(candidate), y_scale).holds:
                raise InternalError("enumeration produced a point outside the orbit")
            if _tight_sets_span(candidate, y_scale):
                results.append(candidate)
            return
        for i in sorted(remaining, key=lambda j: atoms[j][0]):
            aid, weight = atoms[i]
            end = cursor + weight
            run = scale_constant_on(y_scale, cursor, end)
            average = (cumulative(y_scale, end) - cumulative(y_scale, cursor)) / weight
            for value in {run, average} - {None}:
                if prev is None or value <= prev:
                    chosen[aid] = value
                    place(remaining - {i}, end, value, chosen)
                    del chosen[aid]

    place(frozenset(range(n)), ZERO, None, {})
    results.sort(key=lambda f: tuple(f.atom_values[aid] for aid, _ in atoms))
    return results


def partial_average(f: SimpleFunction, atom_ids=(), piece_indices=()) -> SimpleFunction:
    """Replace the values on the selected carriers by their weighted mean.

    This is one partial-averaging step (a doubly stochastic operation), so
    the output is always majorised by the input. Each carrier may be
    selected once: a repeated one would be weighted twice in the mean.
    """
    atom_ids = list(atom_ids)
    piece_indices = list(piece_indices)
    chosen_atoms, chosen = set(atom_ids), set(piece_indices)
    unknown = chosen_atoms - set(f.space.atom_ids)
    if unknown:
        raise UnknownAtomError(f"unknown atoms {sorted(unknown)}")
    if any(not 0 <= i < len(f.diffuse_pieces) for i in piece_indices):
        raise SchemaError("piece index out of range")
    if len(chosen_atoms) < len(atom_ids) or len(chosen) < len(piece_indices):
        raise SchemaError("an atom id or piece index is selected more than once")
    mass = sum((f.space.weight(a) for a in atom_ids), ZERO)
    mass += sum((f.diffuse_pieces[i][1] for i in piece_indices), ZERO)
    if mass == 0:
        return f
    total = sum((f.space.weight(a) * f.atom_values[a] for a in atom_ids), ZERO)
    total += sum(
        (f.diffuse_pieces[i][0] * f.diffuse_pieces[i][1] for i in piece_indices), ZERO
    )
    mean = total / mass
    values = {aid: mean if aid in chosen_atoms else v for aid, v in f.atom_values.items()}
    pieces = tuple((mean if i in chosen else v, m) for i, (v, m) in enumerate(f.diffuse_pieces))
    return SimpleFunction(f.space, values, pieces)


def sample_orbit(y: SimpleFunction, seed: int, rounds: int | None = None) -> SimpleFunction:
    """Pseudo-random orbit element: a seeded sequence of partial-averaging
    steps over random sub-collections of carriers (splitmix64 stream; each
    carrier joins a round with probability 1/2; 1..4 rounds unless given).
    """
    rng = SplitMix64(seed)
    if rounds is None:
        rounds = rng.randint(1, 4)
    current = y
    for _ in range(rounds):
        chosen_atoms = [aid for aid in current.space.atom_ids if rng.next_u64() & 1]
        chosen_pieces = [
            i for i in range(len(current.diffuse_pieces)) if rng.next_u64() & 1
        ]
        if len(chosen_atoms) + len(chosen_pieces) >= 2:
            current = partial_average(current, chosen_atoms, chosen_pieces)
    return current
