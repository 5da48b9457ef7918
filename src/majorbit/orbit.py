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
from itertools import accumulate, permutations
from math import gcd

from .errors import InternalError, NotAtomic, NotInOrbit, SchemaError, SizeLimit, UnknownAtomError
from .measure import ZERO, SimpleFunction, _carrier_table, _over_lcm
from .prng import SplitMix64
from .scales import StepScale, _holds, _slack_walk, cumulative, rearrange

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
    if not _holds(_slack_walk(rearrange(x), y_scale)[4]):
        raise NotInOrbit("x is not majorised by y")
    return _tight_sets_span(x, y_scale)


def _tight_sets_span(x: SimpleFunction, y_scale: StepScale) -> bool:
    """The Gray-code walk of the module docstring, for x in the orbit."""
    n = len(x.space.atoms)
    # masses are ints over den, x's values ints over its table's vden; on
    # y's step k, with both sides scaled by den * vden * y_den * y_vden,
    # the bound at a subset's mass is offsets[k] + slopes[k] * mass
    den, masses = _over_lcm([w for _, w in x.space.atoms])
    table = _carrier_table(x)
    y_den, y_vden, y_ints = y_scale._profile
    # an int mass lies at or before a step end iff it lies at or before its floor
    ends = [end * den // y_den for end in y_scale._ends]
    integrals = accumulate((value * length for value, length in y_ints), initial=0)
    offsets = [table.vden * den * (integral - value * (end - length))
               for integral, end, (value, length) in zip(integrals, y_scale._ends, y_ints)]
    slopes = [table.vden * y_den * value for value, _ in y_ints]
    sums = [mass * value * y_den * y_vden for mass, value in zip(masses, table.values)]
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

    With g = cumulative_y, the orbit is the base polytope of the submodular
    S -> g(w(S)), whose vertices are its greedy vectors (Edmonds 1970): for
    each ordering of the atoms, the atom placed after the set S takes the
    average of y's scale over the span it covers, (g(w(S) + w) - g(w(S))) / w.
    The distinct greedy vectors are returned by atom values in space order;
    each is checked to lie in the orbit and to pass the vertex test.
    """
    if not y.space.purely_atomic:
        raise NotAtomic("enumeration requires a purely atomic space")
    n = len(y.space.atoms)
    if n > MAX_ENUMERATE_ATOMS:
        raise SizeLimit(f"{n} atoms exceed the enumeration limit")
    y_scale = rearrange(y)
    masses = [ZERO]  # masses[S] = w(S) for S a bit mask
    for _, weight in y.space.atoms:
        masses += [mass + weight for mass in masses]
    g = [cumulative(y_scale, mass) for mass in masses]
    # the value of atom i when it is placed after the atoms of the mask
    share = {(mask, i): (g[mask | 1 << i] - g[mask]) / masses[1 << i]
             for mask in range(1 << n) for i in range(n) if not mask >> i & 1}
    points = set()
    for order in permutations(range(n)):
        values, mask = [ZERO] * n, 0
        for i in order:
            values[i] = share[mask, i]
            mask |= 1 << i
        points.add(tuple(values))
    results = [SimpleFunction(y.space, dict(zip(y.space.atom_ids, p))) for p in sorted(points)]
    for candidate in results:
        if not _holds(_slack_walk(rearrange(candidate), y_scale)[4]):
            raise InternalError("a greedy vector lies outside the orbit")
        if not _tight_sets_span(candidate, y_scale):
            raise InternalError("a greedy vector failed the vertex test")
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
