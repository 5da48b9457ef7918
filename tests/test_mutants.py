"""Mutation harness: each literal source mutation below must be killed by
its named property check. A mutant is run by a code-object swap: the
mutated source of one function is compiled, its code object replaces the
function's ``__code__`` while the check runs, and the original is put
back. Each check must pass on the unmutated code and fail on the mutant,
by returning False rather than by raising; a sha256 digest is never the
check.

Equivalent mutants, left out of the table:

- deleting ``verify_witness``'s distinctness check (``if all(xp == xm ...):
  return False``) decides no result. Once delta > 0 and every midpoint row
  holds, x+ = x- on every cell means u is 0 on every cell, so no level is
  touched and the touched-levels check that follows returns False anyway.
"""

import inspect
import textwrap
import types
from fractions import Fraction as F

import pytest

import majorbit.hermitian as hermitian
import majorbit.orbit as orbit
import majorbit.scales as scales
import majorbit.witness as witness
from majorbit.errors import InternalError, SchemaError
from majorbit.scales import StepScale

from conftest import mkatomic, mkdiffuse


def refuses(call, error, message: str) -> bool:
    """Whether call() raises ``error`` with exactly ``message``."""
    try:
        call()
    except error as exc:
        return str(exc) == message
    return False


def returns(call, value) -> bool:
    """Whether call() returns ``value``; a call that raises does not."""
    try:
        return call() == value
    except Exception:
        return False


def scale_refuses_equal_values() -> bool:
    return refuses(lambda: StepScale(((F(1), F(1, 2)), (F(1), F(1, 2)))), InternalError,
                   "step values must be strictly decreasing")


def witness_refuses_a_direction_on_another_space() -> bool:
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    u = mkatomic([1, -1], ["1/4", "3/4"])
    return refuses(lambda: witness.admissible_delta(x, y, u), SchemaError,
                   "functions live on different spaces")


def model_cross_check_refuses_a_wrong_verdict() -> bool:
    equal = hermitian.scales_equal_within
    x, y = hermitian.diag_operator([1, 0]), hermitian.diag_operator([1, 0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hermitian, "scales_equal_within", lambda *args: not equal(*args))
        return refuses(lambda: hermitian.check_extreme_diag(x, y), InternalError,
                       "matrix-side verdict disagrees with the atomic-model criterion")


def unfaithful_snap_skips_the_model_check() -> bool:
    x = hermitian.diag_operator([0.500000002, 0.499999998])
    return returns(lambda: hermitian.check_extreme_diag(x, hermitian.diag_operator([0.5, 0.5])),
                   False)


def average_refuses_a_negative_piece_index() -> bool:
    f = mkdiffuse([(2, "1/2"), (0, "1/2")])
    return refuses(lambda: orbit.partial_average(f, [], [-1]), SchemaError,
                   "piece index out of range")


def averaged_breakpoints_end_at_one() -> bool:
    x = orbit.partial_average(mkatomic([3, 1, 0]), ["a0", "a1"])
    return scales.rearrange(x).breakpoints[-1] == 1


# (id, function, source text, its replacement, the check that kills the mutant)
MUTANTS = [
    ("scale-accepts-equal-values", StepScale._fold,
     "        if i and ints[i - 1][0] <= value:\n"
     "            raise InternalError(\"step values must be strictly decreasing\")\n",
     "", scale_refuses_equal_values),
    ("cells-skip-the-space-check", witness._cells,
     "    for f in fs[1:]:\n        _require_same_space(fs[0], f)\n",
     "", witness_refuses_a_direction_on_another_space),
    ("no-model-cross-check", hermitian.check_extreme_diag,
     "    if model is not None and model != verdict:\n",
     "    if False:\n", model_cross_check_refuses_a_wrong_verdict),
    ("model-check-on-an-unfaithful-snap", hermitian._diag_model_verdict,
     "    if x_vals is None or y_vals is None:\n        return None\n",
     "", unfaithful_snap_skips_the_model_check),
    ("average-skips-the-piece-index-check", orbit.partial_average,
     "    if any(not 0 <= i < len(f.diffuse_pieces) for i in piece_indices):\n"
     "        raise SchemaError(\"piece index out of range\")\n",
     "", average_refuses_a_negative_piece_index),
    ("level-length-is-its-first-mass", scales._level_pairs,
     "_reduced(length, den) if rest else mass(first)", "mass(first)",
     averaged_breakpoints_end_at_one),
]


def mutated_code(fn, old: str, new: str) -> types.CodeType:
    """fn's code compiled from its dedented source with the one occurrence
    of old replaced by new, at fn's own line numbers."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__}: the mutated text must occur once"
    padding = "\n" * (fn.__code__.co_firstlineno - 1)
    module = compile(padding + source.replace(old, new), inspect.getsourcefile(fn), "exec")
    return next(c for c in module.co_consts
                if isinstance(c, types.CodeType) and c.co_name == fn.__name__)


@pytest.mark.parametrize("fn, old, new, check", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(fn, old, new, check):
    assert check(), "the check fails on the unmutated code"
    original = fn.__code__
    fn.__code__ = mutated_code(fn, old, new)
    try:
        assert not check(), f"{check.__name__} misses the mutant"
    finally:
        fn.__code__ = original
    assert check()
