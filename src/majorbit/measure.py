"""Normalized finite measure spaces and simple functions on them.

A space is a finite list of atoms (id, weight) plus a diffuse (atomless)
part of total mass ``diffuse_mass``; weights and masses are exact
rationals summing to 1. A simple function assigns one rational value per
atom and carries an ordered list of (value, mass) pieces partitioning the
diffuse part. Everything is immutable after construction and safe to
share across threads; a function keeps its integer carrier table and its
rearrangement once they are computed.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd
from numbers import Rational
from typing import Mapping, NamedTuple

from .errors import (
    DuplicateAtomError,
    MassMismatchError,
    NormalizationError,
    SchemaError,
    SizeLimit,
    UnknownAtomError,
)
from .rationals import format_ratstr, parse_ratstr

ONE = Fraction(1)
ZERO = Fraction(0)


def _rational(q) -> bool:
    """The one number rule of both constructors: a numbers.Rational that is
    not a bool (bool subclasses int, but True is not a mass or a value)."""
    return isinstance(q, Rational) and not isinstance(q, bool)


@dataclass(frozen=True)
class MeasureSpace:
    atoms: tuple[tuple[str, Fraction], ...]
    diffuse_mass: Fraction

    def __post_init__(self):
        ids = [atom_id for atom_id, _ in self.atoms]
        if len(set(ids)) != len(ids):
            raise DuplicateAtomError(f"duplicate atom ids in {ids}")
        masses = [w for _, w in self.atoms] + [self.diffuse_mass]
        if not all(_rational(q) for q in masses):
            raise SchemaError("weights and diffuse_mass must be rational numbers")
        for atom_id, weight in self.atoms:
            if weight.numerator <= 0:
                raise SchemaError(f"atom {atom_id!r} has non-positive weight")
        if self.diffuse_mass.numerator < 0:
            raise SchemaError("diffuse_mass must be >= 0")
        total = sum((w for _, w in self.atoms), self.diffuse_mass)
        if total != 1:
            try:
                shown = format_ratstr(total)
            except SizeLimit:
                shown = "a rational too long to print"
            raise NormalizationError(f"total mass is {shown}, expected 1")

    @property
    def atom_ids(self) -> tuple[str, ...]:
        return tuple(atom_id for atom_id, _ in self.atoms)

    def weight(self, atom_id: str) -> Fraction:
        for aid, w in self.atoms:
            if aid == atom_id:
                return w
        raise UnknownAtomError(f"no atom {atom_id!r}")

    @property
    def purely_atomic(self) -> bool:
        return self.diffuse_mass == 0


@dataclass(frozen=True)
class SimpleFunction:
    space: MeasureSpace
    atom_values: Mapping[str, Fraction]
    diffuse_pieces: tuple[tuple[Fraction, Fraction], ...] = ()
    # the decreasing rearrangement, filled by scales.rearrange on first use
    _scale: object = field(default=None, init=False, repr=False, compare=False)
    # the integer carrier table, filled by _carrier_table on first use
    _table: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        def exact(q):  # a Fraction is kept as given: Fraction(q) would build a copy of it
            if type(q) is Fraction:
                return q
            if _rational(q):
                return Fraction(q)
            raise SchemaError(f"{q!r} is not a rational number")
        values = {aid: exact(v) for aid, v in self.atom_values.items()}
        pieces = tuple((exact(v), exact(m)) for v, m in self.diffuse_pieces)
        object.__setattr__(self, "atom_values", values)
        object.__setattr__(self, "diffuse_pieces", pieces)
        missing = set(self.space.atom_ids) - set(self.atom_values)
        extra = set(self.atom_values) - set(self.space.atom_ids)
        if extra:
            raise UnknownAtomError(f"values given for unknown atoms {sorted(extra)}")
        if missing:
            raise SchemaError(f"missing values for atoms {sorted(missing)}")
        for _, mass in self.diffuse_pieces:
            if mass.numerator <= 0:
                raise SchemaError("piece masses must be > 0")
        total = sum((m for _, m in self.diffuse_pieces), ZERO)
        if total != self.space.diffuse_mass:
            raise MassMismatchError(
                f"piece masses sum to {total}, diffuse_mass is {self.space.diffuse_mass}"
            )

    def weighted_values(self) -> list[tuple[Fraction, Fraction]]:
        """All (value, mass) carriers: atoms in space order, then pieces."""
        pairs = [(self.atom_values[aid], w) for aid, w in self.space.atoms]
        pairs.extend(self.diffuse_pieces)
        return pairs

    def integral(self) -> Fraction:
        return sum((v * m for v, m in self.weighted_values()), ZERO)

    def map_values(self, fn) -> "SimpleFunction":
        return SimpleFunction(
            self.space,
            {aid: fn(v) for aid, v in self.atom_values.items()},
            tuple((fn(v), m) for v, m in self.diffuse_pieces),
        )


class _Table(NamedTuple):
    """A simple function's carriers (atoms in space order, then pieces) with
    their values as integer numerators over the lcm of the value
    denominators. One stable sort by value groups the carriers into levels,
    by value descending: (value, member indices, (value, length) as
    Fractions)."""

    vden: int
    values: tuple[int, ...]
    levels: tuple[tuple[int, tuple[int, ...], tuple[Fraction, Fraction]], ...]


def _over_lcm(qs) -> tuple[int, list[int]]:
    """The lcm of the denominators of the rationals qs, and each numerator
    over it. Each distinct denominator d costs one gcd of d with the running
    lcm reduced mod d, and one division of the lcm by d."""
    cofactors = dict.fromkeys(q.denominator for q in qs)
    den = 1
    for d in cofactors:
        den *= d // gcd(d, den % d)
    for d in cofactors:
        cofactors[d] = den // d
    return den, [q.numerator * cofactors[q.denominator] for q in qs]


def _carrier_table(f: SimpleFunction) -> _Table:
    """The carrier table of f, built on first use and kept by f."""
    if f._table is None:
        pairs = f.weighted_values()
        vden, values = _over_lcm([v for v, _ in pairs])
        levels = []
        order = sorted(range(len(values)), key=lambda i: -values[i])
        for value, group in groupby(order, key=values.__getitem__):
            first, *rest = group
            v, length = pairs[first]
            levels.append((value, (first, *rest), (v, sum((pairs[i][1] for i in rest), length))))
        object.__setattr__(f, "_table", _Table(vden, tuple(values), tuple(levels)))
    return f._table


@dataclass(frozen=True)
class Refinement:
    """Split instructions for diffuse pieces: piece index -> sub-masses."""

    source: SimpleFunction
    splits: Mapping[int, tuple[Fraction, ...]]

    def __post_init__(self):
        object.__setattr__(self, "splits", dict(self.splits))
        pieces = self.source.diffuse_pieces
        for index, parts in self.splits.items():
            if not 0 <= index < len(pieces):
                raise SchemaError(f"no diffuse piece with index {index}")
            if any(p <= 0 for p in parts):
                raise SchemaError("sub-masses must be > 0")
            if sum(parts, ZERO) != pieces[index][1]:
                raise MassMismatchError(
                    f"sub-masses of piece {index} do not sum to its mass"
                )

    def apply(self) -> SimpleFunction:
        pieces = []
        for index, (value, mass) in enumerate(self.source.diffuse_pieces):
            if index in self.splits:
                pieces.extend((value, part) for part in self.splits[index])
            else:
                pieces.append((value, mass))
        return SimpleFunction(self.source.space, self.source.atom_values, tuple(pieces))


def refine_diffuse(f: SimpleFunction, k: int) -> SimpleFunction:
    """Split every diffuse piece into k equal-mass pieces of the same value.

    The result equals f almost everywhere; its rearrangement is unchanged.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    if k == 1:
        return f
    splits = {
        i: tuple([mass / k] * k) for i, (_, mass) in enumerate(f.diffuse_pieces)
    }
    return Refinement(f, splits).apply()


# ---------------------------------------------------------------------------
# parsing / serialization (external JSON interface)
# ---------------------------------------------------------------------------

def _as_document(document):
    if isinstance(document, str):
        try:
            return json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return document


def _space_entries(document) -> tuple[tuple[tuple[str, Fraction], ...], Fraction]:
    """The checked atoms and diffuse mass of a space document, not yet
    required to total 1."""
    doc = _as_document(document)
    if not isinstance(doc, dict) or "atoms" not in doc or "diffuse_mass" not in doc:
        raise SchemaError("space document needs 'atoms' and 'diffuse_mass'")
    atoms = []
    if not isinstance(doc["atoms"], list):
        raise SchemaError("'atoms' must be a list")
    for entry in doc["atoms"]:
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise SchemaError(f"bad atom entry: {entry!r}")
        if not isinstance(entry["id"], str):
            raise SchemaError("atom ids must be strings")
        atoms.append((entry["id"], parse_ratstr(entry["weight"])))
    return tuple(atoms), parse_ratstr(doc["diffuse_mass"])


def parse_space(document) -> MeasureSpace:
    return MeasureSpace(*_space_entries(document))


def _function_entries(doc: dict):
    """The checked atom values and diffuse pieces of a function document."""
    atom_doc = doc.get("atoms", {})
    if not isinstance(atom_doc, dict):
        raise SchemaError("'atoms' must be an object of id -> ratstr")
    values = {aid: parse_ratstr(v) for aid, v in atom_doc.items()}
    piece_doc = doc.get("diffuse", [])
    if not isinstance(piece_doc, list):
        raise SchemaError("'diffuse' must be a list of pieces")
    pieces = []
    for entry in piece_doc:
        if not isinstance(entry, dict) or "value" not in entry or "mass" not in entry:
            raise SchemaError(f"bad diffuse piece: {entry!r}")
        pieces.append((parse_ratstr(entry["value"]), parse_ratstr(entry["mass"])))
    return values, tuple(pieces)


def parse_function(document, space: MeasureSpace | None = None) -> SimpleFunction:
    doc = _as_document(document)
    if not isinstance(doc, dict):
        raise SchemaError("function document must be a JSON object")
    if space is None:
        if "space" not in doc:
            raise SchemaError("function document needs an embedded 'space'")
        space = parse_space(doc["space"])
    return SimpleFunction(space, *_function_entries(doc))


def serialize_space(space: MeasureSpace) -> dict:
    return {
        "atoms": [
            {"id": aid, "weight": format_ratstr(w)} for aid, w in space.atoms
        ],
        "diffuse_mass": format_ratstr(space.diffuse_mass),
    }


def serialize_function(f: SimpleFunction) -> dict:
    return {
        "space": serialize_space(f.space),
        "atoms": {aid: format_ratstr(f.atom_values[aid]) for aid in f.space.atom_ids},
        "diffuse": [
            {"value": format_ratstr(v), "mass": format_ratstr(m)}
            for v, m in f.diffuse_pieces
        ],
    }


def parse_function_normalized(document) -> SimpleFunction:
    """Parse a function whose embedded space may not be normalized; masses
    (weights, diffuse_mass, piece masses) are rescaled by the same factor.
    The document passes the same checks as in parse_function."""
    doc = _as_document(document)
    if not isinstance(doc, dict) or "space" not in doc:
        raise SchemaError("function document needs an embedded 'space'")
    atoms, diffuse = _space_entries(doc["space"])
    total = sum((w for _, w in atoms), diffuse)
    if total <= 0:
        raise NormalizationError("total mass must be positive to normalize")
    space = MeasureSpace(tuple((a, w / total) for a, w in atoms), diffuse / total)
    values, pieces = _function_entries(doc)
    return SimpleFunction(space, values, tuple((v, m / total) for v, m in pieces))


# ---------------------------------------------------------------------------
# pointwise arithmetic (piece lists are aligned on the union of boundaries)
# ---------------------------------------------------------------------------

def common_refinement(a, b):
    """Yield (a_value, b_value, length) over the common refinement of two
    sequences of (value, length) steps laid end to end. Raises
    MassMismatchError, once the shorter is used up, if their totals differ."""
    i = j = 0
    rem_a = a[0][1] if a else ZERO
    rem_b = b[0][1] if b else ZERO
    while i < len(a) and j < len(b):
        if rem_b < rem_a:  # b's step ends first; a's goes on shortened
            yield a[i][0], b[j][0], rem_b
            rem_a -= rem_b
            rem_b = ZERO
        else:  # a's step ends, and b's too if the remainders were equal
            yield a[i][0], b[j][0], rem_a
            rem_b -= rem_a
            i += 1
            rem_a = a[i][1] if i < len(a) else ZERO
        if rem_b == 0:
            j += 1
            rem_b = b[j][1] if j < len(b) else ZERO
    if i < len(a) or j < len(b):
        raise MassMismatchError("step lists cover different total lengths")


def _require_same_space(f: SimpleFunction, g: SimpleFunction):
    if f.space.atoms != g.space.atoms or f.space.diffuse_mass != g.space.diffuse_mass:
        raise SchemaError("functions live on different spaces")


def add_functions(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    _require_same_space(f, g)
    plus = lambda a, b: a + b if b else a  # where g vanishes, f's value is kept as is
    values = {aid: plus(f.atom_values[aid], g.atom_values[aid]) for aid in f.space.atom_ids}
    pieces = common_refinement(f.diffuse_pieces, g.diffuse_pieces)
    return SimpleFunction(f.space, values, tuple((plus(a, b), m) for a, b, m in pieces))


def scale_function(f: SimpleFunction, c: Fraction) -> SimpleFunction:
    c = Fraction(c)
    return f.map_values(lambda v: v * c if v else v)


def abs_function(f: SimpleFunction) -> SimpleFunction:
    return f.map_values(abs)


def equal_ae(f: SimpleFunction, g: SimpleFunction) -> bool:
    """Equality almost everywhere: atom values equal and piece profiles equal
    on the common refinement (piece boundaries themselves do not matter)."""
    _require_same_space(f, g)
    if any(f.atom_values[a] != g.atom_values[a] for a in f.space.atom_ids):
        return False
    pieces = common_refinement(f.diffuse_pieces, g.diffuse_pieces)
    return all(a == b for a, b, _ in pieces)
