"""Exception hierarchy shared by every module.

``exit_code`` is what the CLI maps the error to: 2 for bad input or a
violated operation precondition, 3 for an internal invariant failure.
"""


class MajorbitError(Exception):
    exit_code = 2

    @property
    def code(self) -> str:
        return type(self).__name__


class SchemaError(MajorbitError):
    """Document does not match the expected JSON shape or ratstr grammar."""


class NormalizationError(MajorbitError):
    """Atom weights plus diffuse mass do not sum to exactly 1."""


class DuplicateAtomError(MajorbitError):
    """Two atoms share an id."""


class MassMismatchError(MajorbitError):
    """Diffuse piece masses do not sum to the space's diffuse mass."""


class UnknownAtomError(MajorbitError):
    """A function assigns a value to an atom id the space does not have."""


class DomainError(MajorbitError):
    """Argument outside the operation's domain (e.g. cumulative at s > 1)."""


class ValueNotAttained(MajorbitError):
    """classify_level asked about a value the function never takes."""


class NotInOrbit(MajorbitError):
    """x is not majorised by y, violating an orbit-membership precondition."""


class DegenerateDirection(MajorbitError):
    """The perturbation direction u is identically zero."""


class CriterionSatisfied(MajorbitError):
    """No witness exists: the extremality criterion holds for (x, y)."""


class NotAtomic(MajorbitError):
    """enumerate_extreme requires a purely atomic space but diffuse mass is
    present."""


class SizeLimit(MajorbitError):
    """Instance too large: too many atoms for enumerate_extreme, or a
    rational too long to print under Python's int-string conversion limit."""


class NotHermitian(MajorbitError):
    """Matrix is not Hermitian within its tolerance."""


class DimensionMismatch(MajorbitError):
    """Operands have different matrix dimensions."""


class NotUnitary(MajorbitError):
    """Matrix is not unitary within tolerance."""


class NotDiagonal(MajorbitError):
    """Operation requires a diagonal matrix."""


class NotDoublyStochastic(MajorbitError):
    """Row or column sums differ from 1, or entries are negative."""


class NotMajorised(MajorbitError):
    """Vector pair violates the majorisation precondition."""


class InternalError(MajorbitError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 3
