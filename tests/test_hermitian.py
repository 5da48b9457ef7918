import hashlib
import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import majorbit.hermitian as hermitian
import majorbit.witness as witness
from majorbit import cli
from majorbit.errors import (
    DimensionMismatch,
    InternalError,
    NotDiagonal,
    NotDoublyStochastic,
    NotHermitian,
    NotInOrbit,
    NotMajorised,
    NotUnitary,
    SchemaError,
)
from majorbit.extremality import check_extreme
from majorbit.hermitian import (
    BirkhoffDecomposition,
    DoublyStochastic,
    HermitianOperator,
    _faithful_snap,
    _perfect_matching,
    birkhoff_decompose,
    check_extreme_diag,
    diag_expectation,
    diag_operator,
    eig_scale,
    identity_suite,
    matrix_majorise,
    random_doubly_stochastic,
    random_hermitian,
    random_unitary,
    schur_horn_check,
    t_transform_chain,
)
from majorbit.measure import MeasureSpace, SimpleFunction, common_refinement
from majorbit.orbit import sample_orbit
from majorbit.prng import SplitMix64
from majorbit.scales import StepScale, majorise_check, rearrange

from conftest import frac, mkatomic


def test_hermitian_validation():
    with pytest.raises(NotHermitian):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        HermitianOperator([[1.0, 2.0, 3.0]])
    op = HermitianOperator([[2.0, 1j], [-1j, 2.0]])
    assert op.n == 2 and abs(op.tau() - 2.0) < 1e-12


def test_empty_matrix_is_rejected():
    """A 0x0 matrix once built an operator whose eig_scale raised
    InternalError and whose tau() divided by zero."""
    with pytest.raises(DimensionMismatch):
        HermitianOperator(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        DoublyStochastic(np.zeros((0, 0)))


def test_identity_suite_rejects_vacuous_trial_counts():
    """trials = 0 used to return passed: true with every count 0."""
    for trials in (0, -3):
        with pytest.raises(SchemaError):
            identity_suite(1, n=3, trials=trials)
    assert identity_suite(1, n=3, trials=1).trials == dict.fromkeys(
        ("pairing_bound", "projection_supremum", "projection_sandwich", "midpoint_rigidity"), 1
    )


def test_identity_suite_rejects_a_dimension_that_is_not_a_positive_int():
    """n = 0 used to raise ValueError("empty range") from randint, and
    n = 1.5 a TypeError."""
    for n in (0, -2, 1.5, 3.0, "3", None):
        with pytest.raises(SchemaError):
            identity_suite(1, n=n, trials=1)


def test_non_finite_input_is_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in ([[1.0, nan], [nan, 1.0]], [[inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(SchemaError):
            HermitianOperator(bad)
        with pytest.raises(SchemaError):
            DoublyStochastic(bad)
    with pytest.raises(SchemaError):
        HermitianOperator([[1e308, 1e308], [1e308, 1e308]])  # default tol is inf
    with pytest.raises(SchemaError):  # row sums overflow whatever the tolerance
        HermitianOperator([[1.5e308, 1.5e308], [1.5e308, 1.5e308]], tol=1.0)
    with pytest.raises(NotHermitian):  # the difference from the adjoint overflows
        HermitianOperator([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(NotDoublyStochastic):  # row and column sums overflow
        DoublyStochastic([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(SchemaError):
        t_transform_chain([], [])
    for tol in (nan, inf, -1.0):
        with pytest.raises(SchemaError):
            HermitianOperator(np.eye(2), tol=tol)
        with pytest.raises(SchemaError):
            DoublyStochastic(np.eye(2), tol=tol)
    with pytest.raises(SchemaError):
        t_transform_chain([1.0, nan], [2.0, 0.0])
    with pytest.raises(SchemaError):
        t_transform_chain(["1/0", "1"], ["2", "0"])


def test_symmetrisation_does_not_overflow():
    """(a + aᴴ) / 2 overflows at a finite 1e308 entry; 0.5·a + 0.5·aᴴ does
    not, and gives the same bits on normal-range input."""
    w, _ = HermitianOperator([[1e308, 0.5], [0.5, 2.0]]).eigensystem()
    assert list(w) == [1e308, 2.0]
    for seed in range(5):
        a = random_hermitian(SplitMix64(seed), 6)
        w, v = a.eigensystem()
        w_ref, v_ref = np.linalg.eigh((a.entries + a.entries.conj().T) / 2.0)
        assert np.array_equal(w, w_ref[::-1]) and np.array_equal(v, v_ref[:, ::-1])


def test_eig_scale_examples():
    assert eig_scale(diag_operator([1, 3])).steps == (
        (Fraction(3), frac("1/2")),
        (Fraction(1), frac("1/2")),
    )
    assert eig_scale(HermitianOperator(np.eye(3))).steps == ((Fraction(1), Fraction(1)),)
    snapped = eig_scale(HermitianOperator([[2.0, 1.0], [1.0, 2.0]]), snap_denominator=10**6)
    assert snapped.steps == ((Fraction(3), frac("1/2")), (Fraction(1), frac("1/2")))


def test_eig_scale_merges_near_degenerate():
    op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    steps = eig_scale(op, snap_denominator=10**6).steps
    assert steps == ((Fraction(5), frac("1/3")), (Fraction(1), frac("2/3")))


def test_matrix_majorise_examples():
    b = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    assert matrix_majorise(diag_operator([2, 2]), b).holds
    assert matrix_majorise(b, b).holds
    assert not matrix_majorise(diag_operator([3, 1]), diag_operator([2, 2])).holds
    with pytest.raises(DimensionMismatch):
        matrix_majorise(diag_operator([1]), diag_operator([1, 1]))


def test_diag_expectation_examples():
    b = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(diag_expectation(b).entries, np.diag([2.0, 2.0]))
    d = diag_operator([4, 7])
    assert np.array_equal(diag_expectation(d).entries, d.entries)
    rng = SplitMix64(3)
    for _ in range(5):
        a = random_hermitian(rng, 4)
        assert abs(diag_expectation(a).tau() - a.tau()) <= 1e-12


def test_schur_horn_examples():
    y = diag_operator([3, 1])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    report = schur_horn_check(y, hadamard)
    assert report.holds
    assert schur_horn_check(y, np.eye(2)).holds
    rng = SplitMix64(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        yr = random_hermitian(rng, n)
        assert schur_horn_check(yr, random_unitary(rng, n), tol=1e-8).holds
    with pytest.raises(NotUnitary):
        schur_horn_check(y, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_check_extreme_diag_examples():
    b = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    assert check_extreme_diag(diag_operator([1, 3]), b) is True
    assert check_extreme_diag(diag_operator([2, 2]), b) is False
    d = diag_operator([5, 5])
    assert check_extreme_diag(d, d) is True
    with pytest.raises(NotDiagonal):
        check_extreme_diag(b, b)
    with pytest.raises(NotInOrbit):
        check_extreme_diag(diag_operator([4, 0]), b)


def test_check_extreme_diag_builds_each_scale_once(monkeypatch):
    built = []

    def counting(a, *args):
        built.append(a)
        return eig_scale(a, *args)

    monkeypatch.setattr(hermitian, "eig_scale", counting)
    b = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    for x, extreme in ((diag_operator([1, 3]), True), (diag_operator([2, 2]), False)):
        built.clear()
        assert check_extreme_diag(x, b) is extreme
        assert built == [x, b]


def test_check_extreme_diag_builds_no_witness(monkeypatch):
    """The atomic-model cross-check reads the criterion's conditions only:
    a non-extreme snapped diagonal gets its verdict with no witness built."""

    def refuse(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(witness, "_witness_from", refuse)
    b = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    x = diag_operator([2, 2])
    assert hermitian._diag_model_verdict(x, b, 1e-9) is False
    assert check_extreme_diag(x, b) is False


def test_check_extreme_diag_matches_atomic_model():
    rng = SplitMix64(21)
    space = None
    for _ in range(40):
        n = rng.randint(1, 6)
        spectrum = [Fraction(rng.randint(-3, 6)) for _ in range(n)]
        u = random_unitary(rng, n)
        y_op = HermitianOperator(u @ np.diag([float(v) for v in spectrum]) @ u.conj().T)
        model_space = MeasureSpace(
            tuple((f"e{i}", Fraction(1, n)) for i in range(n)), Fraction(0)
        )
        y_model = SimpleFunction(model_space, {f"e{i}": spectrum[i] for i in range(n)})
        x_model = sample_orbit(y_model, rng.next_u64())
        values = [x_model.atom_values[f"e{i}"] for i in range(n)]
        expected = check_extreme(x_model, y_model).extreme
        assert check_extreme_diag(diag_operator(values), y_op) == expected


def test_check_extreme_diag_refuses_a_verdict_the_model_contradicts(tmp_path, capsys,
                                                                     monkeypatch):
    """With the matrix-side verdict negated, the atomic-model cross-check
    disagrees on an extreme and on a non-extreme diagonal, and the CLI
    reports that as an invariant failure, exit 3."""
    equal = hermitian.scales_equal_within
    monkeypatch.setattr(hermitian, "scales_equal_within", lambda *args: not equal(*args))
    y = diag_operator([1, 0])
    for x in (diag_operator([1, 0]), diag_operator([frac("1/2"), frac("1/2")])):
        with pytest.raises(InternalError, match="disagrees with the atomic-model criterion"):
            check_extreme_diag(x, y)
    path = tmp_path / "y.json"
    path.write_text(json.dumps(y.serialize()))
    assert cli.main(["matrix-extreme", "-x", str(path), "-y", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "InternalError"


def test_check_extreme_diag_skips_the_model_on_an_unfaithful_snap(tmp_path, capsys):
    """Entries 2e-9 off 1/2 snap to no rational within the snap tolerance, so
    there is no atomic model to cross-check: the matrix-side verdict stands
    alone, and the CLI prints it with exit 0."""
    x_doc, y_doc = {"re": [[0.500000002, 0], [0, 0.499999998]]}, {"re": [[0.5, 0], [0, 0.5]]}
    x, y = HermitianOperator.from_document(x_doc), HermitianOperator.from_document(y_doc)
    assert check_extreme_diag(x, y) is False
    assert hermitian._diag_model_verdict(x, y, max(x.tol, y.tol)) is None
    paths = []
    for name, doc in (("x.json", x_doc), ("y.json", y_doc)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    assert cli.main(["matrix-extreme", "-x", paths[0], "-y", paths[1]]) == 0
    assert capsys.readouterr().out == '{"extreme": false}\n'


def test_serialize_round_trips_a_complex_operator():
    op = HermitianOperator([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -1.0]])
    loaded = HermitianOperator.from_document(json.loads(json.dumps(op.serialize())))
    assert np.array_equal(loaded.entries, op.entries) and loaded.tol == op.tol
    assert np.iscomplexobj(op.entries) and op.entries.imag.any()


# a float within 1e-13 of p/q, q up to twice the snap bound
near_rationals = st.builds(
    lambda p, q, offset: p / q + offset,
    st.integers(-(10**7), 10**7),
    st.integers(1, 2 * 10**6),
    st.floats(-1e-13, 1e-13),
)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | near_rationals,
                min_size=1, max_size=6),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, math.inf]))
@example([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.0, -0.0], math.inf)
@example([1 / 3, -2 / 7, 0.1, 999999 / 1000000, 5e-7, 5.000000000000001e-7], 1e-9)
@example([3.0, -0.25, 0.75, 123456 / 999983], 0.0)
@settings(max_examples=500)
def test_faithful_snap_is_limit_denominator(values, tol):
    """The integer continued fraction gives the reduced pair of
    Fraction.limit_denominator(10**6), and a snap further than tol from its
    float gives None."""
    snapped = [Fraction(v).limit_denominator(10**6) for v in values]
    faithful = all(abs(float(q) - v) <= tol for q, v in zip(snapped, values))
    pairs = [(q.numerator, q.denominator) for q in snapped]
    assert _faithful_snap(np.array(values), tol) == (pairs if faithful else None)


@given(st.integers(-(10**20), 10**20), st.integers(1, 10**20), st.integers(1, 10**7))
@example(7, 1, 1)
@example(-7, 2, 1)
@example(355, 113, 113)
def test_limit_pair_is_limit_denominator(num, den, bound):
    """Any bound, and a reduced num/den within it, which the continued
    fraction expands to the end."""
    q = Fraction(num, den)
    expected = q.limit_denominator(bound)
    assert hermitian._limit_pair(q.numerator, q.denominator, bound) == (
        expected.numerator, expected.denominator)


def test_random_families_are_pinned():
    """sha256 over random_hermitian and random_unitary bytes and the next
    draw after them, for seeds 0-99 and n = 1-12, then identity_suite(s, 12,
    3) for s < 20, as the one-gauss()-per-entry construction produced them."""
    digest = hashlib.sha256()
    for seed in range(100):
        for n in range(1, 13):
            rng = SplitMix64(seed)
            digest.update(random_hermitian(rng, n).entries.tobytes())
            digest.update(random_unitary(rng, n).tobytes())
            digest.update(rng.next_u64().to_bytes(8, "little"))
    for seed in range(20):
        report = identity_suite(seed, 12, 3)
        digest.update(json.dumps(report.serialize(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "77545784be63213bca7049c80f8c05c037d9fdf803774cf836849cd97f18fa4d"
    )


def test_eig_scale_bridges_to_atomic_rearrangement():
    # dyadic values are exact floats, so the two sides agree exactly
    values = [frac("3/4"), frac("-1/2"), frac("5/8"), frac("3/4")]
    op = diag_operator(values)
    model = mkatomic(values, weights=[frac("1/4")] * 4)
    assert eig_scale(op) == rearrange(model)


def test_birkhoff_examples():
    identity = birkhoff_decompose(DoublyStochastic(np.eye(2)))
    assert identity.terms == ((1.0, (0, 1)),)

    half = birkhoff_decompose(DoublyStochastic([[0.5, 0.5], [0.5, 0.5]]))
    assert sorted(perm for _, perm in half.terms) == [(0, 1), (1, 0)]
    assert all(abs(c - 0.5) < 1e-12 for c, _ in half.terms)

    rng = SplitMix64(4)
    for _ in range(10):
        n = rng.randint(2, 6)
        ds = random_doubly_stochastic(rng, n)
        decomposition = birkhoff_decompose(ds)
        coeffs = [c for c, _ in decomposition.terms]
        assert abs(sum(coeffs) - 1.0) <= 1e-12
        assert all(c > 0 for c in coeffs)
        assert len(decomposition.terms) <= (n - 1) ** 2 + 1
        residual = np.max(np.abs(decomposition.matrix(n) - ds.entries))
        assert residual <= 1e-10

    with pytest.raises(NotDoublyStochastic):
        DoublyStochastic([[0.9, 0.0], [0.0, 0.9]])
    with pytest.raises(NotDoublyStochastic):
        DoublyStochastic([[1.5, -0.5], [-0.5, 1.5]])


def test_birkhoff_long_augmenting_path():
    """(I + cyclic shift) / 2 at n = 1100: matching the last row walks an
    augmenting path through every other row, which overflowed the
    recursion limit of a recursive Kuhn search."""
    n = 1100
    identity, shift = tuple(range(n)), tuple((i + 1) % n for i in range(n))
    s = np.zeros((n, n))
    s[range(n), identity] += 0.5
    s[range(n), shift] += 0.5
    terms = birkhoff_decompose(DoublyStochastic(s)).terms
    assert sorted(terms) == [(0.5, identity), (0.5, shift)]


def birkhoff_corpus():
    """Seeded random doubly stochastic matrices at n = 2-12, then sparse
    ones and near-degenerate ones whose weights sit near the extraction
    threshold or differ in the last bits."""
    rng = SplitMix64(35)
    for n in range(2, 13):
        for _ in range(4):
            yield random_doubly_stochastic(rng, n).entries
    for n in (1, 5, 9):
        perm = list(range(n))
        rng.shuffle(perm)
        yield np.eye(n)[perm]
    for n in (3, 7, 12):
        yield 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))
    yield np.kron(np.eye(3), np.full((2, 2), 0.5))
    yield np.full((3, 3), 1.0 / 3.0)
    for n, tiny in ((4, 1e-13), (6, 5e-15), (8, 3e-16), (10, 1e-9)):
        perms = []
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        out = np.zeros((n, n))
        for weight, perm in zip((0.5, 0.5 - tiny, tiny), perms):
            out[range(n), perm] += weight
        yield out


def test_birkhoff_output_is_pinned():
    """sha256 over the serialised terms and the reconstructed matrix's
    bytes for every corpus matrix, in order, as the recursive dense-scan
    matching produced them."""
    digest = hashlib.sha256()
    for entries in birkhoff_corpus():
        decomposition = birkhoff_decompose(DoublyStochastic(entries))
        digest.update(json.dumps(decomposition.serialize()).encode())
        digest.update(decomposition.matrix(entries.shape[0]).tobytes())
    assert digest.hexdigest() == (
        "cc96c838cc9ad3d05ca44a4798ed6f89f2143f28033ffa48fd64dd9f2cdb4470"
    )


def test_birkhoff_terms_are_independent_within_the_bound():
    """Each term zeroes a cell that no later term uses, so the terms are
    linearly independent and at most (n-1)^2 + 1 of them fit."""
    rng = SplitMix64(39)
    for n in range(1, 17):
        for _ in range(10):
            perms = [p for _, p in birkhoff_decompose(random_doubly_stochastic(rng, n)).terms]
            assert len(perms) <= (n - 1) ** 2 + 1
            flat = np.zeros((len(perms), n * n))  # one flattened 0/1 matrix per row
            flat[np.arange(len(perms))[:, None], np.asarray(perms) + n * np.arange(n)] = 1.0
            assert np.linalg.matrix_rank(flat) == len(perms)


def test_birkhoff_term_bound_is_reached():
    """Mixtures of 2-40 random permutations reach (n-1)^2 + 1 terms at every
    n from 3 to 6 and never pass it, so the bound is not vacuous."""
    rng = SplitMix64(40)
    for n in range(3, 7):
        most = 0
        for _ in range(150):
            out = np.zeros((n, n))
            weights = [rng.random() + 1e-3 for _ in range(rng.randint(2, 40))]
            for weight in weights:
                perm = list(range(n))
                rng.shuffle(perm)
                out[range(n), perm] += weight / sum(weights)
            most = max(most, len(birkhoff_decompose(DoublyStochastic(out)).terms))
        assert most == (n - 1) ** 2 + 1


def test_birkhoff_bound_stops_a_matching_that_ignores_the_support(monkeypatch):
    """A matching that returns the identity whatever the support made the
    extraction loop run forever; the bound inside the loop raises on the
    sixth term at n = 3. The stub fails the test after 100 calls, so a
    missing bound fails it instead of hanging."""
    calls = []

    def identity(support, match, owner, trail, start):
        calls.append(start)
        assert len(calls) <= 100, "extraction ran past its term bound"
        return [0, 1, 2]

    monkeypatch.setattr(hermitian, "_perfect_matching", identity)
    with pytest.raises(InternalError):
        birkhoff_decompose(DoublyStochastic(np.full((3, 3), 1 / 3)))
    assert len(calls) == 6


def test_t_transform_examples():
    s = t_transform_chain([2, 2], [3, 1])
    assert np.allclose(s.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    identity = t_transform_chain([4, 2, 1], [4, 2, 1])
    assert np.allclose(identity.entries, np.eye(3), atol=1e-12)
    chain = t_transform_chain([3, 2, 1], [4, 2, 0])
    assert np.max(np.abs(chain.entries @ np.array([4.0, 2.0, 0.0]) - [3, 2, 1])) <= 1e-12
    with pytest.raises(NotMajorised):
        t_transform_chain([3, 1], [2, 2])


def test_t_transform_accepts_ratstr_and_unsorted():
    s = t_transform_chain(["2", "2"], ["1", "3"])
    assert np.max(np.abs(s.entries @ np.array([1.0, 3.0]) - [2.0, 2.0])) <= 1e-12


def test_vector_strings_are_ratstrs_and_bools_are_refused():
    """true was read as 1, and a string went through Fraction(str), which
    takes decimals, exponents and surrounding spaces."""
    for bad in ([True, 0, 0], [1, False, 0], ["0.5", "0.5", 0], [" 1e0 ", 0, 0], [" 1 ", 0, 0]):
        for x, y in ((bad, [1, 0, 0]), ([1, 0, 0], bad)):
            with pytest.raises(SchemaError):
                t_transform_chain(x, y)
        with pytest.raises(SchemaError):
            diag_operator(bad)
    s = t_transform_chain(["1/2", "1/2", "-3"], ["1", "0", "-3"])
    assert np.max(np.abs(s.entries @ np.array([1.0, 0.0, -3.0]) - [0.5, 0.5, -3.0])) <= 1e-12
    assert np.array_equal(np.diag(diag_operator([Fraction(1, 2), 3]).entries), [0.5, 3])


def test_identity_suite_examples():
    degenerate = identity_suite(3, n=1, trials=20)
    assert degenerate.passed

    # commuting pair sorted the same way attains the upper pairing bound
    x = diag_operator([3, 2, 1])
    y = diag_operator([6, 5, 4])
    upper = sum(a * b for a, b in zip([3, 2, 1], [6, 5, 4])) / 3
    assert abs(np.trace(x.entries @ y.entries).real / 3 - upper) <= 1e-12

    report = identity_suite(7, n=5, trials=200)
    assert report.passed
    assert sum(report.trials.values()) == 800


# ---------------------------------------------------------------------------
# the element-by-element loops that the numpy index operations replaced,
# kept as references: each rewrite must reproduce them bit for bit
# ---------------------------------------------------------------------------

def reference_eig_scale(a: HermitianOperator, snap_denominator: int | None = None) -> StepScale:
    """StepScale.from_pairs over the Fraction cluster means, each snapped by
    limit_denominator when asked."""
    w, _ = a.eigensystem()
    clusters: list[list[float]] = []
    for value in w:
        if clusters and abs(clusters[-1][-1] - value) <= a.tol:
            clusters[-1].append(float(value))
        else:
            clusters.append([float(value)])
    means = [Fraction(sum(c) / len(c)) for c in clusters]
    if snap_denominator is not None:
        means = [mean.limit_denominator(snap_denominator) for mean in means]
    return StepScale.from_pairs(
        [(mean, Fraction(len(c), a.n)) for mean, c in zip(means, clusters)]
    )


def reference_perfect_matching(matrix: np.ndarray, threshold: float) -> list[int] | None:
    """Kuhn's augmenting-path matching as a recursive dense scan, reading
    one entry at a time: rows in order, columns in increasing order."""
    n = matrix.shape[0]
    owner = [-1] * n  # column -> row

    def augment(row: int, seen: set) -> bool:
        for col in range(n):
            if matrix[row, col] > threshold and col not in seen:
                seen.add(col)
                if owner[col] == -1 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    for row in range(n):
        if not augment(row, set()):
            return None
    perm = [0] * n
    for col, row in enumerate(owner):
        perm[row] = col
    return perm


def bitmasks(above: np.ndarray) -> list[int]:
    """Each row's support as an int, bit c set for column c."""
    return [sum(1 << col for col in np.flatnonzero(row).tolist()) for row in above]


def reference_birkhoff_terms(s: DoublyStochastic):
    n = s.n
    work = s.entries.copy()
    threshold = 1e-14 * (1.0 + float(np.max(np.abs(work))))
    coeffs, perms = [], []
    for _ in range(n * n + 1):
        if float(np.max(np.abs(work))) <= threshold:
            break
        perm = reference_perfect_matching(work, threshold)
        if perm is None:
            raise NotDoublyStochastic("no perfect matching")
        coeff = float(min(work[row, perm[row]] for row in range(n)))
        coeffs.append(coeff)
        perms.append(tuple(perm))
        for row in range(n):
            work[row, perm[row]] -= coeff
        work[work < 0] = 0.0
    total = sum(coeffs)
    coeffs = [c / total for c in coeffs]
    total = sum(coeffs)
    return [c / total for c in coeffs], perms


def reference_t_transform(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The chain on the sorted vectors, then conjugated by the products
    with the two sorting permutation matrices."""
    n = x.size
    close = 1e-12 * (1.0 + max(float(np.max(np.abs(x))), float(np.max(np.abs(y)))))
    order_x, order_y = np.argsort(-x, kind="stable"), np.argsort(-y, kind="stable")
    xs, work = x[order_x], y[order_y]
    s_sorted = np.eye(n)
    for _ in range(n - 1):
        below = [j for j in range(n) if xs[j] < work[j] - close]
        if not below:
            break
        j = max(below)
        k = next(i for i in range(j + 1, n) if xs[i] > work[i] + close)
        lam = 1.0 - min(work[j] - xs[j], xs[k] - work[k]) / (work[j] - work[k])
        t = np.eye(n)
        t[j, j] = t[k, k] = lam
        t[j, k] = t[k, j] = 1.0 - lam
        work = t @ work
        s_sorted = t @ s_sorted
    p_x, p_y = np.zeros((n, n)), np.zeros((n, n))
    p_x[range(n), order_x] = 1.0
    p_y[range(n), order_y] = 1.0
    return p_x.T @ s_sorted @ p_y


def near_degenerate(rng: SplitMix64, n: int) -> HermitianOperator:
    """Integer levels, some split by gaps around the default tolerance and
    some chained by gaps each under it, conjugated by a random unitary."""
    spectrum = []
    for _ in range(n):
        if spectrum and rng.random() < 0.5:
            spectrum.append(spectrum[-1] + (rng.random() + 0.25) * 10.0 ** -rng.randint(8, 15))
        else:
            spectrum.append(float(rng.randint(-3, 5)))
    u = random_unitary(rng, n)
    return HermitianOperator(u @ np.diag(spectrum) @ u.conj().T)


def test_cluster_split_matches_the_loop():
    rng = SplitMix64(31)
    for _ in range(300):
        op = near_degenerate(rng, rng.randint(1, 10))
        assert eig_scale(op) == reference_eig_scale(op)


# the Fraction comparisons that the integer walks replaced, kept as references

def fraction_relaxed_holds(x: StepScale, y: StepScale, tol: float) -> bool:
    report = majorise_check(x, y)
    return abs(float(report.total_gap)) <= tol and all(
        float(s) >= -tol for _, s in report.breakpoint_slacks
    )


def fraction_equal_within(a: StepScale, b: StepScale, tol: float) -> bool:
    return all(abs(float(va - vb)) <= tol for va, vb, _ in common_refinement(a.steps, b.steps))


def test_integer_eig_scale_matches_the_fraction_means():
    """Clustered spectra, each scale built plain and snapped to denominators
    up to 10**6, 3 and 1: the coarse snaps merge neighbouring clusters into
    one value. Scales, printed steps, the relaxed majorisation verdict and
    scale equality match the Fraction path at tolerances on both sides of
    the slacks and differences."""
    rng = SplitMix64(41)
    merged = 0
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 10)
        ops = [near_degenerate(rng, n) for _ in range(2)]
        scales = []
        for op in ops:
            for snap in (None, 10**6, 3, 1):
                scale, reference = eig_scale(op, snap), reference_eig_scale(op, snap)
                assert scale == reference
                assert scale.serialize() == reference.serialize()
                den, vden, ints = scale._profile  # each length a count over n
                assert den == n
                steps = tuple((Fraction(v, vden), Fraction(l, n)) for v, l in ints)
                assert steps == reference.steps
                clusters = len(reference_eig_scale(op).steps)
                merged += len(scale.steps) < clusters
                scales.append(scale)
        for x in scales[:4]:
            for y in scales[4:]:
                for tol in (0.0, 1e-12, 1e-9, 0.1, 1.0):
                    relaxed = hermitian._relaxed_majorise(x, y, tol).holds
                    assert relaxed == fraction_relaxed_holds(x, y, tol)
                    equal = hermitian.scales_equal_within(x, y, tol)
                    assert equal == fraction_equal_within(x, y, tol)
                    seen.update({("relaxed", relaxed), ("equal", equal)})
    assert merged > 50
    assert len(seen) == 4


def test_matrix_requests_build_no_fraction(monkeypatch):
    """At n = 12, check_extreme_diag on an extreme and a non-extreme diagonal,
    each cross-checked against the atomic model, and matrix_majorise with
    its printed report: scales, slacks and models stay on integers."""
    rng = SplitMix64(43)
    spectrum = [float(rng.randint(-4, 8)) for _ in range(12)]
    averaged = [sum(spectrum[:3]) / 3] * 3 + [sum(spectrum[3:5]) / 2] * 2 + spectrum[5:]
    u, v = random_unitary(rng, 12), random_unitary(rng, 12)
    y = HermitianOperator(u @ np.diag(spectrum) @ u.conj().T)
    x = HermitianOperator(v @ np.diag(averaged) @ v.conj().T)
    diagonals = [diag_operator(spectrum[::-1]), diag_operator(averaged)]
    for d in diagonals:  # the model check runs
        assert hermitian._diag_model_verdict(d, y, max(d.tol, y.tol)) is not None
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    verdicts = [check_extreme_diag(d, y) for d in diagonals]
    report = json.loads(json.dumps(matrix_majorise(x, y).serialize()))
    monkeypatch.undo()
    assert verdicts == [True, False] and report["holds"]
    assert built == []


def test_birkhoff_extraction_matches_the_loop():
    rng = SplitMix64(33)
    for _ in range(200):
        n = rng.randint(2, 16)
        ds = random_doubly_stochastic(rng, n)
        coeffs, perms = reference_birkhoff_terms(ds)
        terms = birkhoff_decompose(ds).terms
        assert np.array([c for c, _ in terms]).tobytes() == np.array(coeffs).tobytes()
        assert [p for _, p in terms] == perms


def test_perfect_matching_matches_the_recursion():
    """Random supports from sparse to dense, with entries on both sides of
    the threshold; the sparse ones often have no perfect matching."""
    rng = SplitMix64(36)
    found = {True: 0, False: 0}
    for _ in range(2400):
        n = rng.randint(1, 13)
        density = 0.05 + 0.95 * rng.random()
        matrix = np.array(
            [[rng.random() if rng.random() < density else 0.0 for _ in range(n)] for _ in range(n)]
        )
        threshold = 0.25 * rng.random()
        perm = _perfect_matching(bitmasks(matrix > threshold), [-1] * n, [-1] * n, [], 0)
        assert perm == reference_perfect_matching(matrix, threshold)
        found[perm is None] += 1
    assert min(found.values()) >= 500


def test_resumed_matching_matches_the_recursion():
    """Supports lose one entry at a time, mostly an entry of the last
    matching as in the greedy extraction; after each loss the matching
    resumes at the row that lost it and must equal a search from scratch.
    A support with no perfect matching keeps none as it loses entries, so
    each sequence stops three losses after its first None."""
    rng = SplitMix64(38)
    found = {True: 0, False: 0}
    for _ in range(100):
        n = rng.randint(1, 16)
        density = 0.3 + 0.7 * rng.random()
        dense = np.array([[float(rng.random() < density) for _ in range(n)] for _ in range(n)])
        support = bitmasks(dense > 0.5)
        match, owner, trail = [-1] * n, [-1] * n, []
        start, misses = 0, 0
        while misses < 3:
            perm = _perfect_matching(support, match, owner, trail, start)
            assert perm == reference_perfect_matching(dense, 0.5)
            found[perm is None] += 1
            misses += perm is None
            cells = np.argwhere(dense > 0.5).tolist()
            if not cells:
                break
            if perm is not None and rng.random() < 0.8:
                start = rng.randint(0, n - 1)
                col = perm[start]
            else:
                start, col = cells[rng.randint(0, len(cells) - 1)]
            dense[start, col] = 0.0
            support[start] ^= 1 << col
    assert min(found.values()) >= 200


def rounded_corpus():
    """Seeded doubly stochastic matrices rounded to 12 decimals, then eye(3)
    with one entry of -5e-10 that its row makes up: all within the
    default tolerance, and many leave the greedy extraction a leftover
    above its threshold that has no perfect matching."""
    rng = SplitMix64(5)
    for _ in range(200):
        yield np.round(random_doubly_stochastic(rng, rng.randint(2, 12)).entries, 12)
    tilted = np.eye(3)
    tilted[0, 1], tilted[0, 0] = -5e-10, 1 + 5e-10
    yield tilted


def test_birkhoff_decomposes_every_accepted_matrix():
    """Extraction stops at a leftover without a perfect matching once it has
    a term, and normalising absorbs the leftover. Where the loop finds a
    matching for every term the terms are the loop's, bit for bit."""
    stopped = 0
    for entries in rounded_corpus():
        ds = DoublyStochastic(entries)
        terms = birkhoff_decompose(ds).terms
        residual = np.max(np.abs(BirkhoffDecomposition(terms).matrix(ds.n) - entries))
        assert residual <= 10 * ds.tol
        try:
            coeffs, perms = reference_birkhoff_terms(ds)
        except NotDoublyStochastic:
            stopped += 1
            continue
        assert np.array([c for c, _ in terms]).tobytes() == np.array(coeffs).tobytes()
        assert [p for _, p in terms] == perms
    assert stopped >= 50
    ds.tol = 1e-12  # the tilted eye(3) under a tol below its 5e-10 leftover
    with pytest.raises(NotDoublyStochastic):
        birkhoff_decompose(ds)


def test_t_transform_conjugation_matches_permutation_products():
    rng = SplitMix64(34)
    for n in range(1, 13):
        for _ in range(20):
            y = np.array([rng.randint(-4, 8) for _ in range(n)], dtype=float)
            x = random_doubly_stochastic(rng, n).entries @ y if n > 1 else y.copy()
            expected = reference_t_transform(x, y).tobytes()
            assert t_transform_chain(x, y).entries.tobytes() == expected
