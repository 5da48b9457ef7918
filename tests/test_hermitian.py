import hashlib
import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import majorbit.hermitian as hermitian
from majorbit.errors import (
    DimensionMismatch,
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
    _caratheodory_prune,
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
from majorbit.measure import MeasureSpace, SimpleFunction
from majorbit.orbit import sample_orbit
from majorbit.prng import SplitMix64
from majorbit.scales import StepScale, rearrange

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


def test_caratheodory_prune_keeps_the_matrix():
    """Greedy extraction rarely exceeds the (n-1)^2 + 1 bound, so the prune
    is driven directly: all six 3x3 permutations are affinely dependent."""
    perms = list(permutations(range(3)))
    coeffs = [1.0 / 6] * 6
    before = BirkhoffDecomposition(tuple(zip(coeffs, perms))).matrix(3)
    kept, kept_perms = _caratheodory_prune(coeffs, perms, 3, 5)
    assert len(kept) <= 5 and all(c > 0 for c in kept)
    after = BirkhoffDecomposition(tuple(zip(kept, kept_perms))).matrix(3)
    assert abs(sum(kept) - 1.0) <= 1e-12
    assert np.max(np.abs(after - before)) <= 1e-12


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

def reference_eig_scale(a: HermitianOperator) -> StepScale:
    w, _ = a.eigensystem()
    clusters: list[list[float]] = []
    for value in w:
        if clusters and abs(clusters[-1][-1] - value) <= a.tol:
            clusters[-1].append(float(value))
        else:
            clusters.append([float(value)])
    return StepScale.from_pairs(
        [(Fraction(sum(c) / len(c)), Fraction(len(c), a.n)) for c in clusters]
    )


def reference_prune(coeffs, perms, n, bound):
    while len(coeffs) > bound:
        columns = []
        for perm in perms:
            flat = np.zeros(n * n + 1)
            for row, col in enumerate(perm):
                flat[row * n + col] = 1.0
            flat[-1] = 1.0
            columns.append(flat)
        terms = np.array(columns).T
        alpha = np.linalg.svd(terms)[2][-1]
        positive = [(coeffs[i] / alpha[i], i) for i in range(len(coeffs)) if alpha[i] > 1e-12]
        if not positive:
            alpha = -alpha
            positive = [
                (coeffs[i] / alpha[i], i) for i in range(len(coeffs)) if alpha[i] > 1e-12
            ]
        theta, drop = min(positive)
        coeffs = [c - theta * a for c, a in zip(coeffs, alpha)]
        coeffs[drop] = 0.0
        keep = [i for i, c in enumerate(coeffs) if c > 1e-15]
        coeffs = [coeffs[i] for i in keep]
        perms = [perms[i] for i in keep]
    return coeffs, perms


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
    coeffs, perms = _caratheodory_prune([c / total for c in coeffs], perms, n, (n - 1) ** 2 + 1)
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


def test_caratheodory_columns_match_the_loop():
    cases = [(list(permutations(range(3))), 3, 5)]
    rng = SplitMix64(32)
    for _ in range(40):
        perms = list(permutations(range(4)))
        rng.shuffle(perms)
        cases.append((perms[:16], 4, 10))
    for perms, n, bound in cases:
        weights = [rng.random() + 1e-3 for _ in perms]
        coeffs = [w / sum(weights) for w in weights]
        kept, kept_perms = _caratheodory_prune(coeffs, perms, n, bound)
        ref, ref_perms = reference_prune(coeffs, perms, n, bound)
        assert np.array(kept).tobytes() == np.array(ref).tobytes()
        assert kept_perms == ref_perms and len(kept) <= bound


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
