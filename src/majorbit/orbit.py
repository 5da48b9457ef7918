"""Independent ground truth for the orbit on purely atomic spaces.

On a space of n atoms the orbit of y is the polytope cut out by one
inequality per nonempty atom subset S,

    sum_{i in S} w_i x_i  <=  cumulative_y(w(S)),

together with equality at the full set. x is a vertex iff the normals of
the constraints tight at x span n dimensions; the rank is computed by
fraction-free (Bareiss) elimination over the integers, so this module
contains no floating point at all and shares no logic with the
per-interval criterion it cross-checks.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import InternalError, NotAtomic, NotInOrbit, SchemaError, SizeLimit, UnknownAtomError
from .measure import ZERO, MeasureSpace, SimpleFunction
from .prng import SplitMix64
from .scales import StepScale, cumulative, majorise_check, rearrange, scale_constant_on

MAX_ORACLE_ATOMS = 20
MAX_ENUMERATE_ATOMS = 6


def fraction_free_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix: clear denominators per row, then Bareiss
    elimination (all intermediate divisions are exact integer divisions)."""
    if not rows:
        return 0
    matrix = []
    for row in rows:
        scale = lcm(*(Fraction(entry).denominator for entry in row)) if row else 1
        matrix.append([int(Fraction(entry) * scale) for entry in row])
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank, pivot_row, prev = 0, 0, 1
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, n_rows) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            factor = matrix[r][col]
            for c in range(col, n_cols):
                matrix[r][c] = (lead * matrix[r][c] - factor * matrix[pivot_row][c]) // prev
        prev = lead
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


@dataclass(frozen=True)
class OrbitPolytope:
    """Subset description of {x : x majorised by y} on an atomic space."""

    space: MeasureSpace
    y_scale: StepScale

    def __post_init__(self):
        if not self.space.purely_atomic:
            raise NotAtomic("orbit polytope requires a purely atomic space")
        if len(self.space.atoms) > MAX_ORACLE_ATOMS:
            raise SizeLimit(f"more than {MAX_ORACLE_ATOMS} atoms")

    @property
    def n(self) -> int:
        return len(self.space.atoms)

    def subsets(self):
        for size in range(1, self.n + 1):
            yield from (frozenset(c) for c in combinations(range(self.n), size))

    def bound(self, subset: frozenset) -> Fraction:
        mass = sum((self.space.atoms[i][1] for i in subset), ZERO)
        return cumulative(self.y_scale, mass)

    def weighted_sum(self, x: SimpleFunction, subset: frozenset) -> Fraction:
        return sum(
            (self.space.atoms[i][1] * x.atom_values[self.space.atoms[i][0]] for i in subset),
            ZERO,
        )

    def contains(self, x: SimpleFunction) -> bool:
        """Brute-force membership: every subset inequality plus total equality."""
        full = frozenset(range(self.n))
        if self.weighted_sum(x, full) != self.bound(full):
            return False
        return all(self.weighted_sum(x, s) <= self.bound(s) for s in self.subsets())

    def tight(self, x: SimpleFunction) -> "TightSet":
        return TightSet(
            tuple(s for s in self.subsets() if self.weighted_sum(x, s) == self.bound(s))
        )


@dataclass(frozen=True)
class TightSet:
    subsets: tuple[frozenset, ...]


def oracle_extreme(x: SimpleFunction, y: SimpleFunction) -> bool:
    """Vertex test: x is extreme iff the weighted indicator normals of its
    tight constraints have full rank. Exact, and independent of the
    per-interval criterion."""
    if not x.space.purely_atomic:
        raise NotAtomic("oracle requires a purely atomic space")
    n = len(x.space.atoms)
    if n > MAX_ORACLE_ATOMS:
        raise SizeLimit(f"{n} atoms exceed the 2^n enumeration limit")
    y_scale = rearrange(y)
    if not majorise_check(rearrange(x), y_scale).holds:
        raise NotInOrbit("x is not majorised by y")
    polytope = OrbitPolytope(x.space, y_scale)
    weights = [w for _, w in x.space.atoms]
    rows = [
        [weights[i] if i in subset else ZERO for i in range(n)]
        for subset in polytope.tight(x).subsets
    ]
    return fraction_free_rank(rows) == n


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
            if oracle_extreme(candidate, y):
                results.append(candidate)
            return
        for i in sorted(remaining, key=lambda j: atoms[j][0]):
            aid, weight = atoms[i]
            end = cursor + weight
            run = scale_constant_on(y_scale, cursor, end)
            average = (cumulative(y_scale, end) - cumulative(y_scale, cursor)) / weight
            candidates = {run, average} - {None}
            for value in candidates:
                if prev is None or value <= prev:
                    chosen[aid] = value
                    place(remaining - {i}, end, value, chosen)
                    del chosen[aid]

    place(frozenset(range(n)), ZERO, None, {})
    results.sort(key=lambda f: tuple(f.atom_values[aid] for aid, _ in atoms))
    return results


def partial_average(
    f: SimpleFunction, atom_ids=(), piece_indices=()
) -> SimpleFunction:
    """Replace the values on the selected carriers by their weighted mean.

    This is one partial-averaging step (a doubly stochastic operation), so
    the output is always majorised by the input.
    """
    atom_ids = list(atom_ids)
    piece_indices = list(piece_indices)
    unknown = set(atom_ids) - set(f.space.atom_ids)
    if unknown:
        raise UnknownAtomError(f"unknown atoms {sorted(unknown)}")
    if any(not 0 <= i < len(f.diffuse_pieces) for i in piece_indices):
        raise SchemaError("piece index out of range")
    mass = sum((f.space.weight(a) for a in atom_ids), ZERO)
    mass += sum((f.diffuse_pieces[i][1] for i in piece_indices), ZERO)
    if mass == 0:
        return f
    total = sum((f.space.weight(a) * f.atom_values[a] for a in atom_ids), ZERO)
    total += sum(
        (f.diffuse_pieces[i][0] * f.diffuse_pieces[i][1] for i in piece_indices), ZERO
    )
    mean = total / mass
    values = {
        aid: (mean if aid in set(atom_ids) else v) for aid, v in f.atom_values.items()
    }
    chosen = set(piece_indices)
    pieces = tuple(
        ((mean if i in chosen else v), m) for i, (v, m) in enumerate(f.diffuse_pieces)
    )
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
