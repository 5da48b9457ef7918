"""Hermitian matrices under the normalized trace: the n x n model of the
orbit machinery, plus the classical doubly stochastic toolkit around it.

Eigenvalue scales reuse the exact StepScale type: a float is a binary
rational, so Fraction(float) loses nothing; comparisons against another
matrix scale are then relaxed by the operator tolerance. Everything
random is driven by the splitmix64 stream.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
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
from .extremality import check_extreme
from .measure import MeasureSpace, SimpleFunction, common_refinement
from .prng import SplitMix64
from .scales import MajorisationReport, StepScale, majorise_check

TOL_COEFFICIENT = 1e-9


def _maxabs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def gershgorin_bound(a: np.ndarray) -> float:
    """Row-sum bound on the spectral radius; inf where a row sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0


def _square_finite(entries, dtype, tol: float) -> np.ndarray:
    """The entries as a square array. NaN or infinite entries and a
    tolerance outside [0, inf) are rejected: comparisons against NaN are
    silently False, so no later check would."""
    a = np.asarray(entries, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SchemaError("entries must be finite numbers")
    if not 0 <= tol < math.inf:
        raise SchemaError(f"tolerance must be finite and nonnegative, got {tol}")
    return a


def _float_vector(values) -> np.ndarray:
    """Floats from numbers or rational strings."""
    try:
        return np.asarray(
            [float(Fraction(v)) if isinstance(v, str) else float(v) for v in values]
        )
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"vector entries must be numbers or ratstrs: {exc}") from exc


def _float_matrix(rows) -> np.ndarray:
    """Floats from the 're' or 'im' rows of a matrix document."""
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"matrix entries must be equal-length rows of numbers: {exc}") from exc


class HermitianOperator:
    """n x n Hermitian matrix with a declared comparison tolerance.

    Default tolerance scales with the size of the spectrum:
    1e-9 * (1 + spectral radius estimate). A matrix whose estimate is not
    finite is rejected whatever the tolerance: its spectrum may overflow.
    """

    def __init__(self, entries, tol: float | None = None):
        a = _square_finite(entries, complex, 0.0 if tol is None else tol)
        bound = gershgorin_bound(a)
        if not math.isfinite(bound):
            raise SchemaError("absolute row sums of the entries overflow the float range")
        if tol is None:
            tol = TOL_COEFFICIENT * (1.0 + bound)
        with np.errstate(over="ignore"):  # an overflowing difference is rejected
            asymmetry = _maxabs(a - a.conj().T)
        if asymmetry > tol:
            raise NotHermitian("matrix differs from its adjoint beyond tolerance")
        self.entries = a
        self.tol = float(tol)
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def tau(self) -> float:
        """Normalized trace."""
        return float(np.trace(self.entries).real) / self.n

    def is_diagonal(self) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return _maxabs(off) <= self.tol

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues descending and matching orthonormal eigenvectors."""
        if self._eig is None:
            w, v = np.linalg.eigh(0.5 * self.entries + 0.5 * self.entries.conj().T)
            self._eig = (w[::-1].copy(), v[:, ::-1].copy())
        return self._eig

    @classmethod
    def from_document(cls, doc, tol: float | None = None) -> "HermitianOperator":
        if not isinstance(doc, dict) or "re" not in doc:
            raise SchemaError("matrix document needs at least 're'")
        re = _float_matrix(doc["re"])
        im = _float_matrix(doc["im"]) if "im" in doc else np.zeros_like(re)
        if re.shape != im.shape:
            raise SchemaError("'re' and 'im' have different shapes")
        if "n" in doc and re.shape != (doc["n"], doc["n"]):
            raise SchemaError("'n' does not match the entries")
        return cls(re + 1j * im, tol)

    def serialize(self) -> dict:
        return {
            "n": self.n,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }


def eig_scale(a: HermitianOperator, snap_denominator: int | None = None) -> StepScale:
    """Spectral scale: eigenvalues descending, each a step of length 1/n,
    merged when closer than the operator tolerance (merged step carries
    the cluster mean). ``snap_denominator`` optionally rounds values to
    rationals with bounded denominator, for exact inputs."""
    w, _ = a.eigensystem()
    values = w.tolist()
    # slices between numpy's cuts; np.split costs twice the loop at n = 12
    cuts = (np.flatnonzero(np.abs(np.diff(w)) > a.tol) + 1).tolist()
    pairs = []
    for lo, hi in zip([0, *cuts], [*cuts, len(values)]) if values else ():
        value = Fraction(sum(values[lo:hi]) / (hi - lo))
        if snap_denominator is not None:
            value = value.limit_denominator(snap_denominator)
        pairs.append((value, Fraction(hi - lo, a.n)))
    return StepScale.from_pairs(pairs)


def scales_equal_within(a: StepScale, b: StepScale, tol: float) -> bool:
    """Sup-distance of two step scales at most tol (lengths are exact, so
    walking the merged segments is enough)."""
    return all(
        abs(float(va - vb)) <= tol for va, vb, _ in common_refinement(a.steps, b.steps)
    )


def _relaxed_majorise(x_scale: StepScale, y_scale: StepScale, tol: float) -> MajorisationReport:
    """majorise_check with a tolerance-aware verdict: slacks may dip to -tol
    and the total gap may be as large as tol."""
    exact = majorise_check(x_scale, y_scale)
    holds = abs(float(exact.total_gap)) <= tol and all(
        float(s) >= -tol for _, s in exact.breakpoint_slacks
    )
    return MajorisationReport(holds, exact.breakpoint_slacks, exact.total_gap)


def matrix_majorise(
    x: HermitianOperator, y: HermitianOperator, tol: float | None = None
) -> MajorisationReport:
    """The relaxed majorisation verdict on the eigenvalue scales."""
    if x.n != y.n:
        raise DimensionMismatch(f"{x.n} vs {y.n}")
    tol = max(x.tol, y.tol) if tol is None else tol
    return _relaxed_majorise(eig_scale(x), eig_scale(y), tol)


def diag_expectation(a: HermitianOperator) -> HermitianOperator:
    """Compression onto the diagonal subalgebra; preserves the trace."""
    return HermitianOperator(np.diag(np.diag(a.entries).real), tol=a.tol)


def schur_horn_check(
    y: HermitianOperator, unitary: np.ndarray, tol: float | None = None
) -> MajorisationReport:
    """Check diag(U y U*) majorised by the spectrum of y; holds for every
    unitary U."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != y.entries.shape:
        raise DimensionMismatch(f"unitary shape {u.shape} vs operator {y.entries.shape}")
    utol = tol if tol is not None else TOL_COEFFICIENT * (1.0 + y.n)
    if _maxabs(u @ u.conj().T - np.eye(y.n)) > utol:
        raise NotUnitary("U U* differs from the identity beyond tolerance")
    conjugated = HermitianOperator(u @ y.entries @ u.conj().T, tol=y.tol)
    return matrix_majorise(diag_expectation(conjugated), y, tol)


def _equal_weight_model(values: list[Fraction]) -> SimpleFunction:
    n = len(values)
    space = MeasureSpace(
        tuple((f"e{i}", Fraction(1, n)) for i in range(n)), Fraction(0)
    )
    return SimpleFunction(space, {f"e{i}": values[i] for i in range(n)})


def _faithful_snap(values: np.ndarray, tol: float):
    """Rationals with denominators up to 10**6 reproducing the floats
    within tol, or None when the data is not that clean."""
    snapped = []
    for value in values:
        q = Fraction(float(value)).limit_denominator(10**6)
        if abs(float(q) - float(value)) > tol:
            return None
        snapped.append(q)
    return snapped


def check_extreme_diag(x: HermitianOperator, y: HermitianOperator) -> bool:
    """Diagonal x is extreme among diagonal orbit elements iff its scale
    equals y's within tolerance (every atom of the matrix algebra has the
    same trace 1/n, which collapses the single-atom condition into scale
    equality).

    When both spectra snap faithfully to small rationals, the verdict is
    cross-checked against the commutative criterion on the equal-weight
    atomic model; a disagreement raises InternalError. Each spectral scale
    is built once and read by both the majorisation test and the verdict.
    """
    if not x.is_diagonal():
        raise NotDiagonal("x must be diagonal")
    if x.n != y.n:
        raise DimensionMismatch(f"{x.n} vs {y.n}")
    tol = max(x.tol, y.tol)
    x_scale, y_scale = eig_scale(x), eig_scale(y)
    if not _relaxed_majorise(x_scale, y_scale, tol).holds:
        raise NotInOrbit("x is not majorised by y")
    verdict = scales_equal_within(x_scale, y_scale, tol)
    model = _diag_model_verdict(x, y, tol)
    if model is not None and model != verdict:
        raise InternalError("matrix-side verdict disagrees with the atomic-model criterion")
    return verdict


def _diag_model_verdict(
    x: HermitianOperator, y: HermitianOperator, tol: float
) -> bool | None:
    snap_tol = min(tol, 1e-9)
    x_vals = _faithful_snap(np.diag(x.entries).real, snap_tol)
    y_vals = _faithful_snap(y.eigensystem()[0], snap_tol)
    if x_vals is None or y_vals is None:
        return None
    xf = _equal_weight_model(x_vals)
    yf = _equal_weight_model(y_vals)
    try:
        return check_extreme(xf, yf).extreme
    except NotInOrbit:
        return None


# ---------------------------------------------------------------------------
# doubly stochastic toolkit
# ---------------------------------------------------------------------------

class DoublyStochastic:
    def __init__(self, entries, tol: float = 1e-9):
        a = _square_finite(entries, float, tol)
        if float(np.min(a)) < -tol:
            raise NotDoublyStochastic("negative entry")
        ones = np.ones(a.shape[0])
        with np.errstate(over="ignore"):  # an overflowing sum is rejected
            drift = max(_maxabs(a.sum(axis=0) - ones), _maxabs(a.sum(axis=1) - ones))
        if drift > tol:
            raise NotDoublyStochastic("row or column sums differ from 1")
        self.entries = a
        self.tol = float(tol)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_document(cls, doc, tol: float = 1e-9) -> "DoublyStochastic":
        if not isinstance(doc, dict) or "re" not in doc:
            raise SchemaError("matrix document needs 're'")
        return cls(_float_matrix(doc["re"]), tol)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def matrix(self, n: int) -> np.ndarray:
        out = np.zeros(n * n)
        if self.terms:  # one unbuffered add per entry, in term order
            coeffs, perms = zip(*self.terms)
            flat = np.asarray(perms) + n * np.arange(n)
            np.add.at(out, flat.ravel(), np.repeat(coeffs, n))
        return out.reshape(n, n)

    def serialize(self) -> dict:
        return {
            "terms": [
                {"coefficient": coeff, "permutation": list(perm)}
                for coeff, perm in self.terms
            ]
        }


def _perfect_matching(
    support: list[int], match: list[int], owner: list[int], trail: list[list[int]], start: int
) -> list[int] | None:
    """Row -> column perfect matching on the rows' column bitmasks (Kuhn's
    augmenting-path algorithm): rows in order, each row's columns in
    increasing order, the path on an explicit stack rather than recursion.
    match/owner keep the last call's matching, trail[r] the path that matched
    root r. Kuhn's state after root r reads only rows 0..r, so once supports
    have only lost entries, none before row ``start``, the search resumes there."""
    while len(trail) > start:  # each row on the path takes back the column above it
        col = -1
        for row in trail.pop():
            match[row], col = col, match[row]
            if match[row] != -1:
                owner[match[row]] = row
        owner[col] = -1
    for root in range(len(trail), len(support)):
        seen, path, top = 0, [root], root
        while True:
            free = support[top] & ~seen  # the top row's untried columns
            if not free:  # no augmenting path through the top row
                path.pop()
                if not path:
                    return None
                top = path[-1]
                continue
            bit = free & -free
            seen |= bit
            col = bit.bit_length() - 1
            top = owner[col]
            if top == -1:  # free: each row on the path shifts one column
                for row in reversed(path):
                    owner[col], match[row], col = row, col, match[row]
                trail.append(path)
                break
            path.append(top)
    return match


def _caratheodory_prune(
    coeffs: list[float], perms: list[tuple[int, ...]], n: int, bound: int
) -> tuple[list[float], list[tuple[int, ...]]]:
    """Remove affinely dependent terms until at most ``bound`` remain.
    Doubly stochastic matrices span an affine space of dimension (n-1)^2,
    so more than (n-1)^2 + 1 terms are always dependent."""
    while len(coeffs) > bound:
        # column i is the flattened permutation matrix of perms[i], then a 1
        terms = np.zeros((n * n + 1, len(perms)))
        terms[np.asarray(perms) + n * np.arange(n), np.arange(len(perms))[:, None]] = 1.0
        terms[-1] = 1.0
        # the right-singular vector of the smallest singular value; a null
        # vector whenever the columns are dependent
        alpha = np.linalg.svd(terms)[2][-1]
        if _maxabs(terms @ alpha) > 1e-9:
            raise InternalError("expected an affine dependence among terms")
        if not np.any(alpha > 1e-12):
            alpha = -alpha
        theta, drop = min(
            (coeffs[i] / alpha[i], i) for i in range(len(coeffs)) if alpha[i] > 1e-12
        )
        coeffs = [c - theta * a for c, a in zip(coeffs, alpha)]
        coeffs[drop] = 0.0
        keep = [i for i, c in enumerate(coeffs) if c > 1e-15]
        coeffs = [coeffs[i] for i in keep]
        perms = [perms[i] for i in keep]
    return coeffs, perms


def birkhoff_decompose(s: DoublyStochastic) -> BirkhoffDecomposition:
    """Greedy Birkhoff-von Neumann decomposition, pruned to at most
    (n-1)^2 + 1 terms; reconstruction residual stays within 10 * tol.
    Extraction stops at a leftover with no perfect matching, which
    normalising absorbs; an input then out of contract, or with no
    perfect matching at all, raises NotDoublyStochastic."""
    n = s.n
    # extraction threshold is float-noise level, not the validation tol:
    # leftovers below it keep the residual well under the 1e-10 contract
    threshold = 1e-14 * (1.0 + _maxabs(s.entries))
    above = s.entries > threshold
    support = [int.from_bytes(row, "little") for row in np.packbits(above, 1, bitorder="little")]
    # the entries above threshold by flat index, as Python floats: no other
    # entry is read, and subtracting the minimum leaves none negative
    cells = dict(zip(np.flatnonzero(above).tolist(), s.entries[above].tolist()))
    match, owner, trail, start = [-1] * n, [-1] * n, [], 0
    coeffs: list[float] = []
    perms: list[tuple[int, ...]] = []
    while any(support):  # each term takes at least one entry out of the support
        perm = _perfect_matching(support, match, owner, trail, start)
        if perm is None:
            if not coeffs:
                raise NotDoublyStochastic(
                    "no perfect matching on the positive support; input too far "
                    "from doubly stochastic"
                )
            break  # a leftover without one: normalising and the residual check decide
        coeff = min([cells[row * n + col] for row, col in enumerate(perm)])
        coeffs.append(coeff)
        perms.append(tuple(perm))
        start = n
        for row, col in enumerate(perm):
            cells[row * n + col] -= coeff
            if cells[row * n + col] <= threshold:  # the entry leaves the support
                support[row] ^= 1 << col
                start = min(start, row)
    total = sum(coeffs)
    if total <= 0:
        raise NotDoublyStochastic("matrix has no doubly stochastic part")
    coeffs = [c / total for c in coeffs]
    bound = (n - 1) ** 2 + 1
    coeffs, perms = _caratheodory_prune(coeffs, perms, n, bound)
    total = sum(coeffs)
    coeffs = [c / total for c in coeffs]
    decomposition = BirkhoffDecomposition(tuple(zip(coeffs, perms)))
    residual = _maxabs(decomposition.matrix(n) - s.entries)
    if residual > 10 * s.tol:  # after a stop on a leftover, the input is at fault
        error = NotDoublyStochastic if perm is None else InternalError
        raise error(f"reconstruction residual {residual} out of contract")
    return decomposition


def t_transform_chain(x, y) -> DoublyStochastic:
    """Doubly stochastic S with S y = x, built from at most n-1 two-index
    averaging (T-transform) steps on the sorted vectors, conjugated by the
    sorting permutations. Entries closer than 1e-12 relative to the
    vectors' size count as equal."""
    x, y = _float_vector(x), _float_vector(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch("vectors of equal length expected")
    if not x.size:
        raise SchemaError("vectors must not be empty")
    if not np.all(np.isfinite([x, y])):
        raise SchemaError("entries must be finite numbers")
    n = x.size
    scale = 1.0 + max(_maxabs(x), _maxabs(y))
    close = 1e-12 * scale
    order_x = np.argsort(-x, kind="stable")
    order_y = np.argsort(-y, kind="stable")
    xs, ys = x[order_x], y[order_y]
    if float(np.max(np.cumsum(xs) - np.cumsum(ys))) > close or abs(
        float(np.sum(xs) - np.sum(ys))
    ) > close:
        raise NotMajorised("x is not majorised by y")
    s_sorted = np.eye(n)
    work = ys.copy()
    for _ in range(n - 1):
        below = [j for j in range(n) if xs[j] < work[j] - close]
        if not below:
            break
        j = max(below)
        k = next((i for i in range(j + 1, n) if xs[i] > work[i] + close), None)
        if k is None:
            raise InternalError("no balancing index; totals drifted apart")
        delta = min(work[j] - xs[j], xs[k] - work[k])
        lam = 1.0 - delta / (work[j] - work[k])
        t = np.eye(n)
        t[j, j] = t[k, k] = lam
        t[j, k] = t[k, j] = 1.0 - lam
        work = t @ work
        s_sorted = t @ s_sorted
    if _maxabs(work - xs) > 1e-10 * scale:
        raise InternalError("T-transform chain failed to reach the target")
    full = s_sorted[np.ix_(np.argsort(order_x), np.argsort(order_y))]
    return DoublyStochastic(full, tol=1e-9)


# ---------------------------------------------------------------------------
# seeded random families
# ---------------------------------------------------------------------------

def random_hermitian(rng: SplitMix64, n: int) -> HermitianOperator:
    g = np.array(
        [[complex(rng.gauss(), rng.gauss()) for _ in range(n)] for _ in range(n)]
    )
    return HermitianOperator((g + g.conj().T) / 2.0)


def random_unitary(rng: SplitMix64, n: int) -> np.ndarray:
    g = np.array(
        [[complex(rng.gauss(), rng.gauss()) for _ in range(n)] for _ in range(n)]
    )
    # the phases of R's diagonal move into Q, which makes that diagonal
    # positive real and so Q a deterministic function of the sample
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    if float(np.min(np.abs(d))) < 1e-12:
        raise InternalError("degenerate sample for unitary construction")
    return q * (d / np.abs(d))


def random_doubly_stochastic(rng: SplitMix64, n: int) -> DoublyStochastic:
    """Convex combination of 2 to max(2, n) random permutation matrices."""
    weights = [rng.random() + 1e-3 for _ in range(rng.randint(2, max(2, n)))]
    total = sum(weights)
    out = np.zeros((n, n))
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        out[range(n), perm] += w / total
    return DoublyStochastic(out)


# ---------------------------------------------------------------------------
# randomized identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    trials: dict
    violations: dict

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.violations.values())

    def serialize(self) -> dict:
        return {
            "trials": dict(self.trials),
            "violations": dict(self.violations),
            "passed": self.passed,
        }


def _top_k_projection(vectors: np.ndarray, k: int) -> np.ndarray:
    cols = vectors[:, :k]
    return cols @ cols.conj().T


def identity_suite(seed: int, n: int, trials: int, tol: float = 1e-8) -> SuiteReport:
    """Seeded randomized checks of the classical trace identities:

    (a) pairing bound: sum of sorted-descending times sorted-ascending
        spectra <= n*tau(xy) <= sorted times sorted;
    (b) projection supremum: tau(xP) <= cumulative_x(k/n) for rank-k P,
        with equality for the top-k spectral projection;
    (c) equality-achieving projections are sandwiched between the open and
        closed spectral projections at the cut;
    (d) midpoint rigidity: if x1 != x2 share a spectrum, the midpoint's
        scale differs from it.
    """
    if trials < 1:
        raise SchemaError(f"trials must be >= 1, got {trials}")
    rng = SplitMix64(seed)
    names = ("pairing_bound", "projection_supremum", "projection_sandwich", "midpoint_rigidity")
    bad = dict.fromkeys(names, 0)

    for _ in range(trials):
        m = rng.randint(1, n)
        x = random_hermitian(rng, m)
        y = random_hermitian(rng, m)
        wx, vx = x.eigensystem()
        wy, _ = y.eigensystem()
        scale = 1.0 + _maxabs(wx) + _maxabs(wy)
        slack = tol * scale

        lower = float(np.dot(wx, wy[::-1])) / m
        upper = float(np.dot(wx, wy)) / m
        middle = float(np.trace(x.entries @ y.entries).real) / m
        if not (lower - slack <= middle <= upper + slack):
            bad["pairing_bound"] += 1

        k = rng.randint(1, m)
        phi_k = float(np.sum(wx[:k])) / m
        random_proj = _top_k_projection(random_unitary(rng, m), k)
        value_random = float(np.trace(x.entries @ random_proj).real) / m
        top = _top_k_projection(vx, k)
        value_top = float(np.trace(x.entries @ top).real) / m
        if value_random > phi_k + slack or abs(value_top - phi_k) > slack:
            bad["projection_supremum"] += 1

        degenerate, deg_proj, deg_k = _degenerate_equality_case(rng, x, k)
        cases = [(x, top, k), (degenerate, deg_proj, deg_k)]
        if value_random >= phi_k - slack:
            cases.append((x, random_proj, k))
        for op, proj, cut in cases:
            if not _sandwich_holds(op, proj, cut, slack):
                bad["projection_sandwich"] += 1
                break

        u = random_unitary(rng, m)
        x2 = HermitianOperator(u @ x.entries @ u.conj().T, tol=x.tol)
        if _maxabs(x2.entries - x.entries) > 10 * slack:
            midpoint = HermitianOperator((x.entries + x2.entries) / 2.0, tol=x.tol)
            if scales_equal_within(eig_scale(midpoint), eig_scale(x), slack):
                bad["midpoint_rigidity"] += 1

    # every check runs once per trial
    return SuiteReport(dict.fromkeys(names, trials), bad)


def _degenerate_equality_case(rng: SplitMix64, x: HermitianOperator, k: int):
    """Force a flat spot across the cut at k, then mix the two eigenvectors
    spanning it into a projection that still attains the supremum."""
    w, v = x.eigensystem()
    m = x.n
    if m == 1 or k >= m:
        return x, _top_k_projection(v, k), k
    w2 = w.copy()
    mean = (w2[k - 1] + w2[k]) / 2.0
    w2[k - 1] = w2[k] = mean
    flat = HermitianOperator(
        v @ np.diag(w2) @ v.conj().T, tol=x.tol + 1e-12 * (1.0 + _maxabs(w2))
    )
    theta = rng.random() * 2.0 * math.pi
    mix = math.cos(theta) * v[:, k - 1] + math.sin(theta) * v[:, k]
    proj = _top_k_projection(v, k - 1) + np.outer(mix, mix.conj())
    return flat, proj, k


def _sandwich_holds(op: HermitianOperator, proj: np.ndarray, k: int, slack: float) -> bool:
    """E(value(k), infinity) <= proj <= E[value(k), infinity) within slack,
    where value(k) is the scale value just right of the cut k/n."""
    w, v = op.eigensystem()
    m = op.n
    if k >= m:
        # rank-n equality projection is the identity; trivially sandwiched
        return _maxabs(proj - np.eye(m)) <= slack
    cut_value = w[k]
    gap = max(op.tol, 1e-10 * (1.0 + _maxabs(w)))
    strictly_above = int(np.sum(w > cut_value + gap))
    at_least = int(np.sum(w >= cut_value - gap))
    e_open = _top_k_projection(v, strictly_above)
    e_closed = _top_k_projection(v, at_least)
    identity = np.eye(m)
    below = e_open @ (identity - proj) @ e_open
    above = (identity - e_closed) @ proj @ (identity - e_closed)
    return _maxabs(below) <= slack and _maxabs(above) <= slack


def diag_operator(values) -> HermitianOperator:
    return HermitianOperator(np.diag(_float_vector(values)))
