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
from .measure import ZERO, SimpleFunction
from .rationals import format_ratstr
from .scales import MajorisationReport, cumulative, majorise_check, rearrange, scale_constant_on

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


def classify_level(x: SimpleFunction, v: Fraction) -> LevelKind:
    """How the level set {x = v} sits in the space: one atom, several atoms,
    diffuse pieces only, or a mixture."""
    atom_ids, pieces = x.level_set(Fraction(v))
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
    """Maximal constancy intervals of the scale of x; they partition [0,1)."""
    out = []
    acc = ZERO
    for value, length in rearrange(x).steps:
        out.append(ConstancyInterval(acc, acc + length, value, classify_level(x, value)))
        acc += length
    return tuple(out)


def evaluate_conditions(
    x: SimpleFunction, y: SimpleFunction
) -> tuple[tuple[ConstancyInterval, ...], tuple[int | None, ...], MajorisationReport]:
    """Per-interval condition tags (1, 2, or None if both fail), with the
    report of the majorisation check of x's scale against y's.

    Raises NotInOrbit when x is not majorised by y: orbit membership is a
    precondition of the criterion, not a verdict.
    """
    y_scale = rearrange(y)
    report = majorise_check(rearrange(x), y_scale)
    if not report.holds:
        raise NotInOrbit("x is not majorised by y")
    intervals = constancy_intervals(x)
    conditions: list[int | None] = []
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
