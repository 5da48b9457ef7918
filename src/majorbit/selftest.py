"""Acceptance suite: every criterion as a seeded, deterministic function.

Each criterion returns a CriterionResult: criteria 1-7 through the
_criterion driver, which counts the trial outcomes they yield, criterion 8
from identity_suite's report. run_all executes all of them, prints one
pass/fail line per criterion, and reports wall time. The pytest
acceptance module drives the same functions, so the CLI `selftest` and the
test suite cannot drift apart.
"""

import functools
import sys
import time
from fractions import Fraction
from itertools import permutations

from .errors import MajorbitError
from .extremality import check_extreme
from .hermitian import (
    HermitianOperator,
    _equal_weight_models,
    birkhoff_decompose,
    check_extreme_diag,
    diag_operator,
    gershgorin_bound,
    identity_suite,
    random_doubly_stochastic,
    random_hermitian,
    random_unitary,
    schur_horn_check,
    t_transform_chain,
)
from .measure import MeasureSpace, SimpleFunction, _Record
from .orbit import enumerate_extreme, oracle_extreme, sample_orbit
from .prng import SplitMix64
from .scales import rearrange
from .witness import verify_witness

import numpy as np


class CriterionResult(_Record):
    index: int
    name: str
    trials: int
    failures: int
    seconds: float
    note: str
    _defaults = {"note": ""}

    @property
    def passed(self) -> bool:
        return self.trials > 0 and self.failures == 0  # no trials is no evidence

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return (f"criterion {self.index} {self.name}: {status} [{self.trials} trials, "
                f"{self.failures} failures, {self.seconds:.2f}s]{extra}")

    def serialize(self) -> dict:
        return {"index": self.index, "name": self.name, "trials": self.trials,
                "failures": self.failures, "passed": self.passed, "note": self.note}


def _dyadic_weights(rng: SplitMix64, n: int) -> tuple[Fraction, ...]:
    exponent = rng.randint(3, 6)
    denom = 2**exponent
    while True:
        cuts = sorted({rng.randint(1, denom - 1) for _ in range(n - 1)})
        if len(cuts) == n - 1:
            break
    bounds = [0] + cuts + [denom]
    return tuple(Fraction(b - a, denom) for a, b in zip(bounds, bounds[1:]))


def _random_instance(rng: SplitMix64, n: int, k: int):
    """n atoms and k diffuse pieces on dyadic masses summing to 1, with
    integer values in [-4, 8]; k = 0 is atomic and n = 0 atomless."""
    parts = _dyadic_weights(rng, n + k)
    space = MeasureSpace(
        tuple((f"a{i}", parts[i]) for i in range(n)),
        sum(parts[n:], Fraction(0)),
    )
    values = {f"a{i}": Fraction(rng.randint(-4, 8)) for i in range(n)}
    pieces = tuple(
        (Fraction(rng.randint(-4, 8)), parts[n + j]) for j in range(k)
    )
    return SimpleFunction(space, values, pieces)


def _criterion(index: int, name: str, full_count: int):
    """Make a generator of trial outcomes, one bool per trial, into the
    criterion `fn(seed, trials=full_count) -> CriterionResult`. The trials
    are the outcomes yielded and the failures those that are not true; a
    MajorbitError ends the criterion with one more failed trial."""

    def wrap(outcomes_of):
        @functools.wraps(outcomes_of)
        def criterion(seed: int, trials: int = full_count) -> CriterionResult:
            start = time.perf_counter()
            outcomes = []
            try:
                for ok in outcomes_of(seed, trials):
                    outcomes.append(ok)
            except MajorbitError:
                outcomes.append(False)
            failures = sum(not ok for ok in outcomes)
            return CriterionResult(
                index, name, len(outcomes), failures, time.perf_counter() - start
            )

        return criterion

    return wrap


@_criterion(1, "criterion-oracle equivalence", 1000)
def criterion_agreement(seed: int, trials: int):
    """1: check_extreme agrees with the polytope vertex oracle on random
    atomic instances, with x drawn both from orbit sampling and from the
    extreme-point enumerator."""
    rng = SplitMix64(seed)
    for case in range(trials):
        n = rng.randint(2, 5)
        use_enumerate = case % 2 == 1 and n <= 4
        y = _random_instance(rng, n, 0)
        if use_enumerate:
            points = enumerate_extreme(y)
            x = points[rng.randint(0, len(points) - 1)]
        else:
            x = sample_orbit(y, rng.next_u64())
        yield check_extreme(x, y).extreme == oracle_extreme(x, y)


_HLP_CASES = [(3, 1), (2, 2, 1), (5, 1, 1, 0), (3, 2, 2, 1), (4, 3, 2, 2, 1, 0)]


@_criterion(2, "classical HLP recovery", len(_HLP_CASES))
def criterion_hlp(seed: int, trials: int):
    """2: equal weights recover the classical picture: the extreme points
    are exactly the multiset permutations of y."""
    for values in _HLP_CASES[: max(trials, 0)]:
        n = len(values)
        [y] = _equal_weight_models([(v, 1) for v in values])
        found = {
            tuple(f.atom_values[f"e{i}"] for i in range(n))
            for f in enumerate_extreme(y)
        }
        yield found == {tuple(Fraction(v) for v in p) for p in permutations(values)}


@_criterion(3, "Ryff recovery on atomless spaces", 500)
def criterion_ryff(seed: int, trials: int):
    """3: on purely diffuse spaces, extreme iff equimeasurable."""
    rng = SplitMix64(seed)
    for case in range(trials):
        y = _random_instance(rng, 0, rng.randint(2, 5))
        if case % 2 == 0:
            x = sample_orbit(y, rng.next_u64())
        else:
            pieces = list(y.diffuse_pieces)
            rng.shuffle(pieces)
            x = SimpleFunction(y.space, {}, tuple(pieces))
        yield check_extreme(x, y).extreme == (rearrange(x) == rearrange(y))


@_criterion(4, "witness soundness and completeness", 1000)
def criterion_witnesses(seed: int, trials: int):
    """4: every NotExtreme verdict carries an exactly verified witness;
    construction never fails on a criterion-violating input."""
    rng = SplitMix64(seed)
    makers = [
        lambda: _random_instance(rng, rng.randint(2, 5), 0),
        lambda: _random_instance(rng, 0, rng.randint(2, 5)),
        lambda: _random_instance(rng, rng.randint(1, 3), rng.randint(1, 3)),
    ]
    checked = guard = 0
    while checked < trials and guard < 20 * max(trials, 1):
        guard += 1
        y = makers[guard % 3]()
        x = sample_orbit(y, rng.next_u64())
        verdict = check_extreme(x, y)
        if not verdict.extreme:
            checked += 1
            w = verdict.witness
            yield w is not None and verify_witness(x, y, w)


@_criterion(5, "golden weighted examples", 3)
def criterion_golden(seed: int, trials: int):
    """5: exact golden weighted examples, re-verified against the vertex
    oracle, which decides the mixed-space example (c) on its halved-level
    model."""
    # (a) weights (1/2,1/4,1/4), y=(4,2,0), x=(3,4,0): extreme by condition 2
    space = MeasureSpace(
        (("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))),
        Fraction(0),
    )
    y = SimpleFunction(space, {"a": 4, "b": 2, "c": 0})
    x = SimpleFunction(space, {"a": 3, "b": 4, "c": 0})
    verdict = check_extreme(x, y)
    yield verdict.extreme and verdict.conditions == (1, 2, 1) and oracle_extreme(x, y)

    # (b) weights (2/3,1/3), y=(3,0): exactly two extreme points
    space2 = MeasureSpace((("A", Fraction(2, 3)), ("B", Fraction(1, 3))), Fraction(0))
    y2 = SimpleFunction(space2, {"A": 3, "B": 0})
    found = {
        (f.atom_values["A"], f.atom_values["B"]) for f in enumerate_extreme(y2)
    }
    yield found == {(Fraction(3), Fraction(0)), (Fraction(3, 2), Fraction(3))}

    # (c) half-diffuse space: y = (4 on 1/4) + (2 on 1/4) + atom 0;
    #     x = 0 on the diffuse part, atom value twice the diffuse integral
    space3 = MeasureSpace((("e", Fraction(1, 2)),), Fraction(1, 2))
    y3 = SimpleFunction(
        space3, {"e": 0}, ((Fraction(4), Fraction(1, 4)), (Fraction(2), Fraction(1, 4)))
    )
    x3 = SimpleFunction(space3, {"e": 3}, ((Fraction(0), Fraction(1, 2)),))
    verdict3 = check_extreme(x3, y3)
    yield verdict3.extreme and verdict3.conditions == (2, 1) and oracle_extreme(x3, y3)


def _dyadic_sqrt_inverse_pieces() -> tuple[tuple[Fraction, Fraction], ...]:
    """8 pieces on (0,1/2) with dyadic boundaries 2^-9..2^-1, values rational
    approximations of 1/sqrt(t) at the right endpoints (strictly decreasing)."""
    import math

    boundaries = [Fraction(0)] + [Fraction(1, 2**k) for k in range(8, 0, -1)]
    pieces = []
    for left, right in zip(boundaries, boundaries[1:]):
        approx = Fraction(1.0 / math.sqrt(float(right))).limit_denominator(2**12)
        pieces.append((approx, right - left))
    values = [v for v, _ in pieces]
    assert all(a > b for a, b in zip(values, values[1:]))
    return tuple(pieces)


@_criterion(6, "truncation family extremality", 9)
def criterion_truncation_family(seed: int, trials: int):
    """6: truncating the decreasing step density at any piece boundary and
    giving the atom twice the cut tail is always extreme."""
    pieces = _dyadic_sqrt_inverse_pieces()
    space = MeasureSpace((("e", Fraction(1, 2)),), Fraction(1, 2))
    y = SimpleFunction(space, {"e": 0}, pieces)
    for keep in range(len(pieces) + 1):
        tail = sum((v * m for v, m in pieces[keep:]), Fraction(0))
        new_pieces = tuple(
            (v if i < keep else Fraction(0), m) for i, (v, m) in enumerate(pieces)
        )
        x = SimpleFunction(space, {"e": 2 * tail}, new_pieces)
        yield check_extreme(x, y).extreme


@_criterion(7, "matrix suite", 200)
def criterion_matrix(seed: int, trials: int):
    """7: Schur inclusion for random unitaries; diagonal extremality matches
    the atomic model; Birkhoff and T-transform contracts."""
    rng = SplitMix64(seed)

    for _ in range(trials):
        n = rng.randint(1, 8)
        y = random_hermitian(rng, n)
        u = random_unitary(rng, n)
        tol = 1e-8 * (1.0 + gershgorin_bound(y.entries))
        yield schur_horn_check(y, u, tol=tol).holds

    for _ in range(trials):
        n = rng.randint(1, 8)
        spectrum = [(rng.randint(-4, 8), 1) for _ in range(n)]
        u = random_unitary(rng, n)
        y_op = HermitianOperator(u @ np.diag([float(v) for v, _ in spectrum]) @ u.conj().T)
        if rng.next_u64() & 1:
            ordering = list(range(n))
            rng.shuffle(ordering)
            x_values = [spectrum[j] for j in ordering]
        else:
            x_model = sample_orbit(_equal_weight_models(spectrum)[0], rng.next_u64())
            x_values = [x_model._atoms[f"e{i}"] for i in range(n)]
        expected = check_extreme(*_equal_weight_models(x_values, spectrum)).extreme
        yield check_extreme_diag(diag_operator([p / q for p, q in x_values]), y_op) == expected

    for _ in range(trials):
        n = rng.randint(2, 8)
        ds = random_doubly_stochastic(rng, n)
        decomposition = birkhoff_decompose(ds)
        residual = np.max(np.abs(decomposition.matrix(n) - ds.entries))
        yield not (
            residual > 1e-10
            or len(decomposition.terms) > (n - 1) ** 2 + 1
            or abs(sum(c for c, _ in decomposition.terms) - 1.0) > 1e-12
        )

    for _ in range(trials):
        n = rng.randint(1, 8)
        y_vec = np.array([rng.randint(-4, 8) for _ in range(n)], dtype=float)
        mix = random_doubly_stochastic(rng, n) if n > 1 else None
        x_vec = mix.entries @ y_vec if mix is not None else y_vec.copy()
        s = t_transform_chain(x_vec, y_vec)
        yield not np.max(np.abs(s.entries @ y_vec - x_vec)) > 1e-10


def criterion_identities(seed: int, trials: int = 200) -> CriterionResult:
    """8: trace inequality chain, projection supremum with spectral
    equality, projection sandwich, midpoint rigidity."""
    start = time.perf_counter()
    report = identity_suite(seed, n=6, trials=trials, tol=1e-8)
    failures = sum(report.violations.values())
    note = ", ".join(f"{k}={v}" for k, v in report.violations.items() if v)
    return CriterionResult(8, "matrix identity suite", sum(report.trials.values()), failures,
                           time.perf_counter() - start, note=note)


# each criterion's full count is the default of its trials parameter
CRITERIA = [
    criterion_agreement,
    criterion_hlp,
    criterion_ryff,
    criterion_witnesses,
    criterion_golden,
    criterion_truncation_family,
    criterion_matrix,
    criterion_identities,
]


def run_all(seed: int = 1, trials: int | None = None):
    """Run every criterion, logging one line each to stderr; scale instance
    counts by trials/1000 when a trial budget is given. Returns (results,
    all_passed)."""
    results = []
    overall_start = time.perf_counter()
    for fn in CRITERIA:
        (full,) = fn.__defaults__
        count = full if trials is None else max(1, round(full * trials / 1000))
        results.append(fn(seed, count))
        print(results[-1].line(), file=sys.stderr)
    total = time.perf_counter() - overall_start
    ok = all(r.passed for r in results)
    print(f"selftest {'PASS' if ok else 'FAIL'} in {total:.2f}s (seed={seed})", file=sys.stderr)
    return results, ok
