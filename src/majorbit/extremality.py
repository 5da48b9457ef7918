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

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInOrbit, ValueNotAttained
from .measure import ZERO, SimpleFunction, _carrier_table
from .rationals import format_ratstr
from .scales import _holds, _slack_walk, rearrange

SINGLE_ATOM = "single_atom"
MULTIPLE_ATOMS = "multiple_atoms"
DIFFUSE = "diffuse"
MIXED = "mixed"


@dataclass(frozen=True)
class LevelKind:
    tag: str
    atom_ids: tuple[str, ...] = ()

    @property
    def is_single_atom(self) -> bool:
        return self.tag == SINGLE_ATOM


@dataclass(frozen=True)
class ConstancyInterval:
    t1: Fraction
    t2: Fraction
    value: Fraction
    kind: LevelKind

    @property
    def length(self) -> Fraction:
        return self.t2 - self.t1


@dataclass(frozen=True)
class ExtremalityVerdict:
    extreme: bool
    intervals: tuple[ConstancyInterval, ...]
    conditions: tuple[int | None, ...]
    witness: "object | None" = None

    @property
    def verdict(self) -> str:
        return "extreme" if self.extreme else "not_extreme"

    def serialize(self, include_witness: bool = True) -> dict:
        from .witness import serialize_witness

        intervals = [{"t1": format_ratstr(iv.t1), "t2": format_ratstr(iv.t2),
                      "value": format_ratstr(iv.value), "kind": iv.kind.tag, "condition": cond}
                     for iv, cond in zip(self.intervals, self.conditions)]
        doc = {"verdict": self.verdict, "intervals": intervals}
        if include_witness and self.witness is not None:
            doc["witness"] = serialize_witness(self.witness)
        return doc


def _level_kind(x: SimpleFunction, level) -> LevelKind:
    """How a level of x's carrier table sits in the space: one atom,
    several atoms, diffuse pieces only, or a mixture."""
    atoms = x.space.atoms
    atom_ids = tuple(atoms[i][0] for i in level[1] if i < len(atoms))
    if atom_ids and len(level[1]) > len(atom_ids):
        return LevelKind(MIXED, atom_ids)
    if not atom_ids:
        return LevelKind(DIFFUSE)
    if len(atom_ids) == 1:
        return LevelKind(SINGLE_ATOM, atom_ids)
    return LevelKind(MULTIPLE_ATOMS, atom_ids)


def classify_level(x: SimpleFunction, v: Fraction) -> LevelKind:
    """How the level set {x = v} sits in the space: one atom, several atoms,
    diffuse pieces only, or a mixture."""
    v, (vden, _, levels, _) = Fraction(v), _carrier_table(x)
    level = next((lv for lv in levels if lv[0] * v.denominator == v.numerator * vden), None)
    if level is None:
        raise ValueNotAttained(f"{v} is not a value of the function")
    return _level_kind(x, level)


def constancy_intervals(x: SimpleFunction) -> tuple[ConstancyInterval, ...]:
    """Maximal constancy intervals of the scale of x; they partition [0,1)."""
    scale, levels = rearrange(x), _carrier_table(x).levels
    points = (ZERO, *scale.breakpoints)
    return tuple(
        ConstancyInterval(t1, t2, value, _level_kind(x, level))
        for t1, t2, (value, _), level in zip(points, points[1:], scale.steps, levels)
    )


def evaluate_conditions(
    x: SimpleFunction, y: SimpleFunction
) -> tuple[tuple[ConstancyInterval, ...], tuple[int | None, ...], tuple[int, ...]]:
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
    intervals = constancy_intervals(x)
    conditions: list[int | None] = []
    slacks = [0]
    points, end = iter(walk), 0
    for iv, (_, length) in zip(intervals, x_ints):
        end += length
        start, flat = slacks[-1], True
        for t, slack in points:
            flat = flat and slack == start
            if t == end:
                break
        slacks.append(slack)
        conditions.append(1 if flat else 2 if iv.kind.is_single_atom and slack == start else None)
    return intervals, tuple(conditions), tuple(slacks)


def check_extreme(x: SimpleFunction, y: SimpleFunction) -> ExtremalityVerdict:
    """Decide extremality of x in the orbit of y; a NotExtreme verdict
    always carries a verified witness pair.

    y may live on a different space: only its scale enters the criterion.
    """
    evaluation = evaluate_conditions(x, y)
    intervals, conditions, _ = evaluation
    if all(c is not None for c in conditions):
        return ExtremalityVerdict(True, intervals, conditions)
    from .witness import _witness_from

    return ExtremalityVerdict(False, intervals, conditions, _witness_from(x, y, evaluation))
