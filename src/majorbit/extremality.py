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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import NotInOrbit, ValueNotAttained
from .measure import ZERO, SimpleFunction, _carrier_table
from .rationals import format_ratstr
from .scales import MajorisationReport, _report, _slack_walk, rearrange

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

        doc = {
            "verdict": self.verdict,
            "intervals": [
                {
                    "t1": format_ratstr(iv.t1),
                    "t2": format_ratstr(iv.t2),
                    "value": format_ratstr(iv.value),
                    "kind": iv.kind.tag,
                    "condition": cond,
                }
                for iv, cond in zip(self.intervals, self.conditions)
            ],
        }
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
    v = Fraction(v)
    level = next((lv for lv in _carrier_table(x).levels if lv[2][0] == v), None)
    if level is None:
        raise ValueNotAttained(f"{v} is not a value of the function")
    return _level_kind(x, level)


def _intervals(x: SimpleFunction, points) -> tuple[ConstancyInterval, ...]:
    """The constancy intervals of x, given its scale's step ends from 0 on."""
    return tuple(
        ConstancyInterval(t1, t2, level[2][0], _level_kind(x, level))
        for t1, t2, level in zip(points, points[1:], _carrier_table(x).levels)
    )


def constancy_intervals(x: SimpleFunction) -> tuple[ConstancyInterval, ...]:
    """Maximal constancy intervals of the scale of x; they partition [0,1)."""
    return _intervals(x, (ZERO, *rearrange(x).breakpoints))


def evaluate_conditions(
    x: SimpleFunction, y: SimpleFunction
) -> tuple[tuple[ConstancyInterval, ...], tuple[int | None, ...], MajorisationReport]:
    """Per-interval condition tags (1, 2, or None if both fail), with the
    report of the majorisation check of x's scale against y's.

    One integer walk over the two scales gives the report, and its slack
    decides condition 2: on a level of x, y's scale integrates to
    value * length exactly when the slack is equal at both ends.

    Raises NotInOrbit when x is not majorised by y: orbit membership is a
    precondition of the criterion, not a verdict.
    """
    den, vden, x_ints, y_ints, walk = _slack_walk(rearrange(x), rearrange(y))
    report = _report(den, vden, walk)
    if not report.holds:
        raise NotInOrbit("x is not majorised by y")
    # the slack and the Fraction point at each end of the refinement, and at 0
    at = {0: (0, ZERO)}
    at.update((t, (s, point)) for (t, s), (point, _) in zip(walk, report.breakpoint_slacks))
    y_ends = list(accumulate(length for _, length in y_ints))
    ends = [0, *accumulate(length for _, length in x_ints)]
    intervals = _intervals(x, [at[t][1] for t in ends])
    conditions: list[int | None] = []
    for iv, (value, _), t1, t2 in zip(intervals, x_ints, ends, ends[1:]):
        k = bisect_right(y_ends, t1)
        if t2 <= y_ends[k] and y_ints[k][0] == value:
            conditions.append(1)
        elif iv.kind.is_single_atom and at[t2][0] == at[t1][0]:
            conditions.append(2)
        else:
            conditions.append(None)
    return intervals, tuple(conditions), report


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
