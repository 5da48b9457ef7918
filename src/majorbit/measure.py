"""Normalized finite measure spaces and simple functions on them.

A space is a finite list of atoms (id, weight) plus a diffuse (atomless)
part of total mass ``diffuse_mass``; weights and masses are exact
rationals summing to 1. A simple function assigns one rational value per
atom and carries an ordered list of (value, mass) pieces partitioning the
diffuse part. Everything is immutable after construction and safe to
share across threads; a function extends its space's one integer fold of
the masses and keeps its carrier table and rearrangement once computed.
"""

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd
from numbers import Rational
from operator import attrgetter
from typing import Mapping

from .errors import (
    DuplicateAtomError,
    MassMismatchError,
    NormalizationError,
    SchemaError,
    UnknownAtomError,
)
from .rationals import _format_pair, _parse_pair, _reduced, _shown

ONE = Fraction(1)
ZERO = Fraction(0)
_pair = attrgetter("numerator", "denominator")  # a rational's reduced int pair


def _rational(q) -> bool:
    """The one number rule of both constructors: a numbers.Rational that is
    not a bool (bool subclasses int, but True is not a mass or a value)."""
    return isinstance(q, Rational) and not isinstance(q, bool)


class _Record:
    """A frozen record, as a frozen dataclass: its annotated fields, in order, are its
    constructor's parameters, then ``__post_init__`` runs; they are its equality, hash and
    repr. Defaults live in ``_defaults``, for trailing fields. ``_of`` builds a record from the
    arguments of its ``_fold``, which keeps its integers; a field that ``_fold`` does not set is
    a ``cached_property``, derived from them on first read."""

    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        """Compile the class's own __init__, which binds its arguments as a dataclass's does,
        and construct with it. Compiling on first use spares the classes a call never builds."""
        cls, fields = type(self), type(self)._fields
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        scope = {"_defaults": cls._defaults, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}    self.__post_init__()\n", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__(self, *args, **kwargs)

    def __post_init__(self):
        pass

    @classmethod
    def _of(cls, *args):
        obj = object.__new__(cls)
        obj._fold(*args)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class MeasureSpace(_Record):
    """Weights and diffuse_mass are reduced int pairs, ``_weights`` and ``_diffuse``, folded to
    (D, numerators) in ``_masses``. Spaces are equal when their ids and pairs are."""

    atoms: tuple[tuple[str, Fraction], ...]
    diffuse_mass: Fraction
    atoms = cached_property(lambda s: tuple(zip(s.atom_ids, (Fraction(*w) for w in s._weights))))
    diffuse_mass = cached_property(lambda s: Fraction(*s._diffuse))

    def __post_init__(self):
        if not all(_rational(q) for q in [w for _, w in self.atoms] + [self.diffuse_mass]):
            raise SchemaError("weights and diffuse_mass must be rational numbers")
        ids, weights = tuple(aid for aid, _ in self.atoms), tuple(_pair(w) for _, w in self.atoms)
        self._fold(ids, weights, _pair(self.diffuse_mass))

    def _fold(self, ids, weights, diffuse, masses=None):
        """Check the pairs and keep them with their fold, folded here unless given."""
        if len(set(ids)) != len(ids):
            raise DuplicateAtomError(f"duplicate atom ids in {list(ids)}")
        for atom_id, (num, _) in zip(ids, weights):
            if num <= 0:
                raise SchemaError(f"atom {atom_id!r} has non-positive weight")
        if diffuse[0] < 0:
            raise SchemaError("diffuse_mass must be >= 0")
        den, nums = masses or _fold_pairs([*weights, diffuse])
        if sum(nums) != den:
            raise NormalizationError(f"total mass is {_shown(Fraction(sum(nums), den))}, expected 1")
        self.__dict__.update(atom_ids=ids, _weights=weights, _diffuse=diffuse, _masses=(den, nums))

    def __eq__(self, other):
        pairs = lambda s: (s.atom_ids, s._weights, s._diffuse)
        return self is other or (isinstance(other, MeasureSpace) and pairs(self) == pairs(other))

    def __hash__(self):
        return hash((self.atoms, self.diffuse_mass))

    def weight(self, atom_id: str) -> Fraction:
        for aid, w in self.atoms:
            if aid == atom_id:
                return w
        raise UnknownAtomError(f"no atom {atom_id!r}")

    @property
    def purely_atomic(self) -> bool:
        return self._diffuse[0] == 0


def _exact(q) -> Fraction:
    """The one number rule as a Fraction; a Fraction is kept as given."""
    if type(q) is not Fraction and not _rational(q):
        raise SchemaError(f"{q!r} is not a rational number")
    return q if type(q) is Fraction else Fraction(q)


class SimpleFunction(_Record):
    """Values and piece masses are reduced int pairs, ``_atoms`` (id -> value) and ``_pieces``,
    folded over the carriers (atoms in space order, then pieces) to (D, numerators) in
    ``_values`` and ``_masses``."""

    space: MeasureSpace
    atom_values: Mapping[str, Fraction]
    diffuse_pieces: tuple[tuple[Fraction, Fraction], ...]
    _defaults = {"diffuse_pieces": ()}
    _scale = None  # the decreasing rearrangement, filled by scales.rearrange on first use
    atom_values = cached_property(lambda f: {aid: Fraction(*q) for aid, q in f._atoms.items()})
    diffuse_pieces = cached_property(lambda f: tuple((Fraction(*v), Fraction(*m))
                                                     for v, m in f._pieces))

    def __post_init__(self):
        values = {aid: _exact(v) for aid, v in self.atom_values.items()}
        pieces = tuple((_exact(v), _exact(m)) for v, m in self.diffuse_pieces)
        self.__dict__.update(atom_values=values, diffuse_pieces=pieces)
        self._fold(self.space, {aid: _pair(v) for aid, v in values.items()},
                   tuple((_pair(v), _pair(m)) for v, m in pieces))

    def _fold(self, space, atoms, pieces, values=None, masses=None):
        """Check the pairs, unless ``masses`` is given (a checked function's), and keep them."""
        ids = space.atom_ids
        if masses is None:
            known = set(ids)
            extra, missing = sorted(atoms.keys() - known), sorted(known - atoms.keys())
            if extra:
                raise UnknownAtomError(f"values given for unknown atoms {extra}")
            if missing:
                raise SchemaError(f"missing values for atoms {missing}")
            space_den, space_nums = space._masses
            den, nums = _fold_pairs([m for _, m in pieces], space_den)
            if any(num <= 0 for num in nums):
                raise SchemaError("piece masses must be > 0")
            factor = den // space_den
            if sum(nums) != space_nums[-1] * factor:
                raise MassMismatchError(f"piece masses sum to {_shown(Fraction(sum(nums), den))}, "
                                        f"diffuse_mass is {_shown(space.diffuse_mass)}")
            masses = (den, [m * factor for m in space_nums[:-1]] + nums)
        values = values or _fold_pairs([atoms[aid] for aid in ids] + [v for v, _ in pieces])
        self.__dict__.update(space=space, _atoms=atoms, _pieces=pieces, _values=values,
                             _masses=masses)

    @cached_property
    def _table(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """The levels by value descending, (value, member indices, length): one stable sort
        groups the carriers, and a length sums their mass numerators."""
        values, masses = self._values[1], self._masses[1]
        levels = []
        order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        for value, group in groupby(order, key=values.__getitem__):
            members = tuple(group)
            levels.append((value, members, sum(map(masses.__getitem__, members))))
        return tuple(levels)

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


def _fold_pairs(pairs, den: int = 1) -> tuple[int, list[int]]:
    """The lcm of den and the denominators of the (numerator, denominator) pairs, and each
    numerator over it. Each distinct denominator d costs one gcd and one division."""
    cofactors = dict.fromkeys(d for _, d in pairs)
    for d in cofactors:
        den *= d // gcd(d, den % d)
    for d in cofactors:
        cofactors[d] = den // d
    return den, [n * cofactors[d] for n, d in pairs]


class Refinement(_Record):
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
                raise MassMismatchError(f"sub-masses of piece {index} do not sum to its mass")

    def apply(self) -> SimpleFunction:
        pieces = tuple((v, part) for i, (v, m) in enumerate(self.source.diffuse_pieces)
                       for part in self.splits.get(i, (m,)))
        return SimpleFunction(self.source.space, self.source.atom_values, pieces)


def refine_diffuse(f: SimpleFunction, k: int) -> SimpleFunction:
    """Split every diffuse piece into k equal-mass pieces of the same value.

    The result equals f almost everywhere; its rearrangement is unchanged.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    if k == 1:
        return f
    splits = {i: tuple([mass / k] * k) for i, (_, mass) in enumerate(f.diffuse_pieces)}
    return Refinement(f, splits).apply()


# ---------------------------------------------------------------------------
# parsing / serialization (external JSON interface)
# ---------------------------------------------------------------------------

def _as_document(document):
    if isinstance(document, str):
        try:
            return json.loads(document)
        # JSONDecodeError, an integer over the digit limit, or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return document


class _Literals(list):
    """[atom entries, diffuse_mass] of a space document: as a key, compared in C."""

    def __hash__(self):
        return hash(self[1])


def _space_literals(document) -> _Literals:
    """The atom entries and diffuse_mass of a space document, checked for shape."""
    doc = _as_document(document)
    if not isinstance(doc, dict) or "atoms" not in doc or "diffuse_mass" not in doc:
        raise SchemaError("space document needs 'atoms' and 'diffuse_mass'")
    if not isinstance(doc["atoms"], list) or not isinstance(doc["diffuse_mass"], str):
        raise SchemaError("'atoms' must be a list and 'diffuse_mass' a string")
    return _Literals((doc["atoms"], doc["diffuse_mass"]))


def _space_pairs(entries, diffuse: str) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """The checked ids of a space document's atom entries, and the weights' and then
    diffuse_mass's reduced pairs."""
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise SchemaError(f"bad atom entry: {entry!r}")
        if not isinstance(entry["id"], str) or not isinstance(entry["weight"], str):
            raise SchemaError("atom ids and weights must be strings")
    ids = tuple(entry["id"] for entry in entries)
    return ids, [_parse_pair(entry["weight"]) for entry in entries] + [_parse_pair(diffuse)]


def parse_space(document) -> MeasureSpace:
    return _space_of(_space_literals(document))


@lru_cache(maxsize=1)  # the last space: x and y of a request spell it with the same literals
def _space_of(literals: _Literals) -> MeasureSpace:
    """The space of the literals. The cache keeps them as its key, so they take a copy of the
    entries here: a caller may change its document after the call."""
    ids, masses = _space_pairs(*literals)
    literals[0] = [dict(entry) for entry in literals[0]]
    return MeasureSpace._of(ids, tuple(masses[:-1]), masses[-1])


def _function_entries(doc: dict):
    """The checked atom values and diffuse pieces of a function document, as
    reduced (numerator, denominator) pairs."""
    atom_doc = doc.get("atoms", {})
    if not isinstance(atom_doc, dict):
        raise SchemaError("'atoms' must be an object of id -> ratstr")
    values = {aid: _parse_pair(v) for aid, v in atom_doc.items()}
    piece_doc = doc.get("diffuse", [])
    if not isinstance(piece_doc, list):
        raise SchemaError("'diffuse' must be a list of pieces")
    pieces = []
    for entry in piece_doc:
        if not isinstance(entry, dict) or "value" not in entry or "mass" not in entry:
            raise SchemaError(f"bad diffuse piece: {entry!r}")
        pieces.append((_parse_pair(entry["value"]), _parse_pair(entry["mass"])))
    return values, tuple(pieces)


def parse_function(document, space: MeasureSpace | None = None) -> SimpleFunction:
    doc = _as_document(document)
    if not isinstance(doc, dict):
        raise SchemaError("function document must be a JSON object")
    if space is None:
        if "space" not in doc:
            raise SchemaError("function document needs an embedded 'space'")
        space = parse_space(doc["space"])
    return SimpleFunction._of(space, *_function_entries(doc))


def serialize_space(space: MeasureSpace) -> dict:
    atoms = [{"id": a, "weight": _format_pair(*w)} for a, w in zip(space.atom_ids, space._weights)]
    return {"atoms": atoms, "diffuse_mass": _format_pair(*space._diffuse)}


def serialize_function(f: SimpleFunction, space: dict | None = None) -> dict:
    """f's document, printed from its pairs; ``space`` is its space's, if already built."""
    atoms = {aid: _format_pair(*f._atoms[aid]) for aid in f.space.atom_ids}
    pieces = [{"value": _format_pair(*v), "mass": _format_pair(*m)} for v, m in f._pieces]
    return {"space": space or serialize_space(f.space), "atoms": atoms, "diffuse": pieces}


def parse_function_normalized(document) -> SimpleFunction:
    """Parse a function whose embedded space may not be normalized; masses
    (weights, diffuse_mass, piece masses) are divided by their total T/D, the
    sum of their numerators over their fold's D, so those numerators are the
    space's fold over T. The document passes the same checks as in parse_function."""
    doc = _as_document(document)
    if not isinstance(doc, dict) or "space" not in doc:
        raise SchemaError("function document needs an embedded 'space'")
    ids, masses = _space_pairs(*_space_literals(doc["space"]))
    den, nums = _fold_pairs(masses)
    total = sum(nums)
    if total <= 0:
        raise NormalizationError("total mass must be positive to normalize")
    t, d = _reduced(total, den)
    scaled = lambda mass: _reduced(mass[0] * d, mass[1] * t)
    masses = [scaled(mass) for mass in masses]
    space = MeasureSpace._of(ids, tuple(masses[:-1]), masses[-1], (total, nums))
    values, pieces = _function_entries(doc)
    return SimpleFunction._of(space, values, tuple((v, scaled(m)) for v, m in pieces))


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
    if f.space != g.space:
        raise SchemaError("functions live on different spaces")


def add_functions(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    _require_same_space(f, g)
    plus = lambda a, b: a + b if b else a  # where g vanishes, f's value is kept as is
    values = {aid: plus(f.atom_values[aid], g.atom_values[aid]) for aid in f.space.atom_ids}
    pieces = common_refinement(f.diffuse_pieces, g.diffuse_pieces)
    return SimpleFunction(f.space, values, tuple((plus(a, b), m) for a, b, m in pieces))


def scale_function(f: SimpleFunction, c: Fraction) -> SimpleFunction:
    c = _exact(c)
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
