"""Extreme-point test for majorisation orbits on finite measure spaces.

x (in the orbit of y) is extreme iff on every maximal constancy interval
[t1,t2) of its scale, with value v, one of:

  condition 1: the scale of y is also identically v on [t1,t2);
  condition 2: the level set {x = v} is a single atom of the space and
               the integral of y's scale over [t1,t2) equals v*(t2-t1).

The disjunction is evaluated per maximal constancy interval: condition 2 is
t-independent on the interval, and a pointwise failure of condition 1
anywhere in the interior forces condition 2, so the per-interval test is
equivalent to the pointwise one. The interval containing t=0 is treated
like any other (its interior meets (0,1)).
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from .errors import NotInOrbit, ValueNotAttained
from .measure import ZERO, SimpleFunction, _Record, _level_pairs
from .rationals import _format_pair, _reduced, format_ratstr
from .scales import _holds, _slack_walk, rearrange

SINGLE_ATOM = "single_atom"
MULTIPLE_ATOMS = "multiple_atoms"
DIFFUSE = "diffuse"
MIXED = "mixed"


class LevelKind(_Record):
    tag: str
    atom_ids: tuple[str, ...]
    _defaults = {"atom_ids": ()}

    @property
    def is_single_atom(self) -> bool:
        return self.tag == SINGLE_ATOM


class ConstancyInterval(_Record):
    t1: Fraction
    t2: Fraction
    value: Fraction
    kind: LevelKind

    @property
    def length(self) -> Fraction:
        return self.t2 - self.t1


class ExtremalityVerdict(_Record):
    """Built by ``_of`` from x, a verdict derives its intervals on first read and prints them
    from x's level pairs; evaluate_conditions and the witness read x's carrier table."""

    extreme: bool
    intervals: tuple[ConstancyInterval, ...]
    conditions: tuple[int | None, ...]
    witness: "object | None"
    _defaults = {"witness": None}
    _x = None
    intervals = cached_property(lambda v: constancy_intervals(v._x))

    def _fold(self, extreme, x, conditions, witness=None):
        self.__dict__.update(extreme=extreme, _x=x, conditions=conditions, witness=witness)

    @property
    def verdict(self) -> str:
        return "extreme" if self.extreme else "not_extreme"

    def serialize(self, include_witness: bool = True) -> dict:
        from .witness import serialize_witness

        if self._x is not None:  # printed from x's level pairs
            levels, n = _levels(self._x), len(self._x.space.atom_ids)
            ends = ["0", *(_format_pair(*end) for _, end, _ in levels)]
            rows = [(t1, t2, _format_pair(*value), _tag(members, n))
                    for t1, t2, (value, _, members) in zip(ends, ends[1:], levels)]
        else:
            rows = [(*map(format_ratstr, (iv.t1, iv.t2, iv.value)), iv.kind.tag)
                    for iv in self.intervals]
        intervals = [{"t1": t1, "t2": t2, "value": value, "kind": tag, "condition": cond}
                     for (t1, t2, value, tag), cond in zip(rows, self.conditions)]
        doc = {"verdict": self.verdict, "intervals": intervals}
        if include_witness and self.witness is not None:
            doc["witness"] = serialize_witness(self.witness)
        return doc


def _tag(members, n: int) -> str:
    """How a level with these ascending carrier indices sits in a space of n atoms:
    one atom, several atoms, diffuse pieces only, or a mixture."""
    atoms = bisect_left(members, n)
    if atoms < len(members):
        return MIXED if atoms else DIFFUSE
    return SINGLE_ATOM if atoms == 1 else MULTIPLE_ATOMS


def _levels(x: SimpleFunction) -> list[tuple[tuple[int, int], tuple[int, int], tuple[int, ...]]]:
    """Per level of x: its value's and its end's reduced pairs, and its carrier indices. An end
    is the running sum of the levels' own reduced lengths, never reduced over the common D."""
    table, end, levels = x._table, (0, 1), []
    pairs = _level_pairs(x.space, x._atoms, x._pieces, x._masses[0], table)
    for (value, (a, b)), (_, members, _) in zip(pairs, table):
        end = _reduced(end[0] * b + a * end[1], end[1] * b)
        levels.append((value, end, members))
    return levels


def classify_level(x: SimpleFunction, v: Fraction) -> LevelKind:
    """How the level set {x = v} sits in the space: one atom, several atoms,
    diffuse pieces only, or a mixture."""
    v = Fraction(v)
    kind = next((iv.kind for iv in constancy_intervals(x) if iv.value == v), None)
    if kind is None:
        raise ValueNotAttained(f"{v} is not a value of the function")
    return kind


def constancy_intervals(x: SimpleFunction) -> tuple[ConstancyInterval, ...]:
    """Maximal constancy intervals of the scale of x; they partition [0,1)."""
    ids, levels = x.space.atom_ids, _levels(x)
    ends = [ZERO, *(Fraction(*end) for _, end, _ in levels)]
    kind = lambda m: LevelKind(_tag(m, len(ids)), tuple(ids[i] for i in m if i < len(ids)))
    return tuple(ConstancyInterval(t1, t2, Fraction(*value), kind(members))
                 for t1, t2, (value, _, members) in zip(ends, ends[1:], levels))


def evaluate_conditions(
    x: SimpleFunction, y: SimpleFunction
) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
    """Per-interval condition tags (1, 2, or None if both fail), with the
    slack s -> integral_0^s (scale of y - scale of x) at each interval end
    from 0 on, as integers over one positive denominator.

    One integer walk over the two scales gives the slack, linear between
    walk points. On a level of x it is flat exactly when condition 1 holds,
    and equal at both ends exactly when y's scale integrates to value *
    length there (condition 2 on a single atom).

    Raises NotInOrbit when x is not majorised by y: orbit membership is a
    precondition of the criterion, not a verdict.
    """
    _, _, x_ints, _, walk = _slack_walk(rearrange(x), rearrange(y))
    if not _holds(walk):
        raise NotInOrbit("x is not majorised by y")
    n = len(x.space.atom_ids)
    conditions: list[int | None] = []
    slacks = [0]
    points, end = iter(walk), 0
    for (_, members, _), (_, length) in zip(x._table, x_ints):
        end += length
        start, flat = slacks[-1], True
        for t, slack in points:
            flat = flat and slack == start
            if t == end:
                break
        slacks.append(slack)
        single = slack == start and _tag(members, n) == SINGLE_ATOM
        conditions.append(1 if flat else 2 if single else None)
    return tuple(conditions), tuple(slacks)


def check_extreme(x: SimpleFunction, y: SimpleFunction) -> ExtremalityVerdict:
    """Decide extremality of x in the orbit of y; a NotExtreme verdict
    always carries a verified witness pair.

    y may live on a different space: only its scale enters the criterion.
    """
    evaluation = evaluate_conditions(x, y)
    conditions = evaluation[0]
    if all(c is not None for c in conditions):
        return ExtremalityVerdict._of(True, x, conditions)
    from .witness import _witness_from

    return ExtremalityVerdict._of(False, x, conditions, _witness_from(x, y, evaluation))
