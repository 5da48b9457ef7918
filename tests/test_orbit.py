import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from majorbit import orbit
from majorbit.errors import InternalError, NotInOrbit, SchemaError, SizeLimit
from majorbit.extremality import check_extreme
from majorbit.measure import (
    ONE,
    MeasureSpace,
    SimpleFunction,
    add_functions,
    refine_diffuse,
    scale_function,
    serialize_function,
)
from majorbit.orbit import (
    enumerate_extreme,
    oracle_extreme,
    partial_average,
    sample_orbit,
)
from majorbit.prng import SplitMix64
from majorbit.scales import MajorisationReport, cumulative, majorise_check, rearrange
from majorbit.witness import verify_witness

from conftest import frac, mkatomic, mkdiffuse, simple_functions
from reference_core import gray_oracle


# ---------------------------------------------------------------------------
# reference: the subset description enumerated one frozenset at a time with
# Fraction bounds, and the rank of the tight normals by Bareiss elimination
# ---------------------------------------------------------------------------

def fraction_free_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix: clear denominators per row, then Bareiss
    elimination (all intermediate divisions are exact integer divisions)."""
    if not rows:
        return 0
    matrix = []
    for row in rows:
        scale = lcm(*(Fraction(entry).denominator for entry in row)) if row else 1
        matrix.append([int(Fraction(entry) * scale) for entry in row])
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank, pivot_row, prev = 0, 0, 1
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, n_rows) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            factor = matrix[r][col]
            for c in range(col, n_cols):
                matrix[r][c] = (lead * matrix[r][c] - factor * matrix[pivot_row][c]) // prev
        prev = lead
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def subsets(n):
    for size in range(1, n + 1):
        yield from (frozenset(c) for c in combinations(range(n), size))


def bound(space, y_scale, subset):
    return cumulative(y_scale, sum((space.atoms[i][1] for i in subset), Fraction(0)))


def weighted_sum(x, subset):
    atoms = x.space.atoms
    return sum((atoms[i][1] * x.atom_values[atoms[i][0]] for i in subset), Fraction(0))


def reference_contains(x, y_scale):
    """Brute-force membership: every subset inequality plus total equality."""
    n = len(x.space.atoms)
    full = frozenset(range(n))
    if weighted_sum(x, full) != bound(x.space, y_scale, full):
        return False
    return all(weighted_sum(x, s) <= bound(x.space, y_scale, s) for s in subsets(n))


def reference_tight(x, y):
    y_scale = rearrange(y)
    return [s for s in subsets(len(x.space.atoms))
            if weighted_sum(x, s) == bound(x.space, y_scale, s)]


def reference_oracle(x, y):
    """x is a vertex iff the weighted indicator normals of its tight
    constraints have full rank."""
    n = len(x.space.atoms)
    weights = [w for _, w in x.space.atoms]
    rows = [[weights[i] if i in s else Fraction(0) for i in range(n)]
            for s in reference_tight(x, y)]
    return fraction_free_rank(rows) == n


def test_fraction_free_rank():
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[Fraction(0), Fraction(0)]]) == 0
    assert fraction_free_rank([[frac("1/2"), Fraction(0)], [frac("1/2"), frac("1/2")]]) == 2
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert fraction_free_rank(rows) == 2
    # denominators cleared row-wise, elimination is exact
    rows = [[frac("1/3"), frac("1/7")], [frac("2/3"), frac("2/7")]]
    assert fraction_free_rank(rows) == 1


def test_oracle_extreme_examples():
    y = mkatomic([3, 1])
    assert oracle_extreme(mkatomic([3, 1]), y) is True
    assert oracle_extreme(mkatomic([2, 2]), y) is False

    space = MeasureSpace(
        (("a", frac("1/2")), ("b", frac("1/4")), ("c", frac("1/4"))), Fraction(0)
    )
    y3 = SimpleFunction(space, {"a": 4, "b": 2, "c": 0})
    x3 = SimpleFunction(space, {"a": 3, "b": 4, "c": 0})
    assert oracle_extreme(x3, y3) is True
    # hand enumeration of the tight sets: {b}, {a,b}, {a,b,c}
    tight = set(reference_tight(x3, y3))
    assert tight == {frozenset({1}), frozenset({0, 1}), frozenset({0, 1, 2})}
    assert reference_oracle(x3, y3) is True


def _random_atomic(rng, n, denominators=(1, 2, 3)):
    parts = [rng.randint(1, 6) for _ in range(n)]
    total = sum(parts)
    values = [Fraction(rng.randint(-4, 6), denominators[rng.randint(0, len(denominators) - 1)])
              for _ in range(n)]
    return mkatomic(values, weights=[Fraction(p, total) for p in parts])


def _orbit_points(rng, y):
    """y itself (a vertex), a seeded orbit sample and a two-atom average."""
    ids = y.space.atom_ids
    i = rng.randint(0, len(ids) - 1)
    j = (i + rng.randint(1, len(ids) - 1)) % len(ids)
    return y, sample_orbit(y, rng.next_u64()), partial_average(y, [ids[i], ids[j]])


def _coarsen(y, blocks):
    """y averaged over runs of consecutive atoms, on the space of the runs."""
    atoms = y.space.atoms
    cuts = [0, *range(1, blocks), len(atoms)]
    masses, values = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        mass = sum((w for _, w in atoms[lo:hi]), Fraction(0))
        total = sum((w * y.atom_values[aid] for aid, w in atoms[lo:hi]), Fraction(0))
        masses.append(mass)
        values.append(total / mass)
    return mkatomic(values, weights=masses)


def test_oracle_matches_reference_and_criterion():
    """Differential: the oracle against the subset enumeration on n <= 8,
    and against the interval criterion on n = 14..16, where the reference
    is too slow."""
    rng = SplitMix64(2024)
    verdicts = []
    while len(verdicts) < 360:
        y = _random_atomic(rng, rng.randint(2, 8))
        for x in _orbit_points(rng, y):
            verdict = oracle_extreme(x, y)
            assert verdict == reference_oracle(x, y)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    verdicts = []
    while len(verdicts) < 60:  # y on a finer space: its breakpoints lie off x's mass lattice
        y = _random_atomic(rng, rng.randint(3, 8))
        x = _coarsen(y, rng.randint(2, len(y.space.atoms) - 1))
        for x in (x, sample_orbit(x, rng.next_u64())):
            verdict = oracle_extreme(x, y)
            assert verdict == reference_oracle(x, y)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    verdicts = []
    for n in (14, 15, 16):
        y = _random_atomic(rng, n)
        for x in _orbit_points(rng, y):
            verdict = oracle_extreme(x, y)
            assert verdict == check_extreme(x, y).extreme
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_oracle_matches_the_gray_code_reference():
    """Differential: the count over y's supporting lines against the 2^n
    Gray-code walk, at every n from 2 to 12, with y on x's space or on a
    finer one."""
    rng = SplitMix64(2323)
    for n in range(2, 13):
        verdicts = set()
        for _ in range(6):
            y = _random_atomic(rng, n)
            for x in _orbit_points(rng, y):
                verdict = oracle_extreme(x, y)
                assert verdict == gray_oracle(x, y)
                verdicts.add(verdict)
        if n > 2:
            y = _random_atomic(rng, n + 2)
            x = _coarsen(y, n)
            for x in (x, sample_orbit(x, rng.next_u64())):
                assert oracle_extreme(x, y) == gray_oracle(x, y)
        assert verdicts == {True, False}


def test_oracle_all_subsets_tight_within_budget():
    """Constant y on equal-weight atoms makes every subset tight; the
    reference walk stops once the tight indicators span."""
    y = mkatomic([1] * 16)
    start = time.perf_counter()
    assert oracle_extreme(y, y) is True
    assert gray_oracle(y, y) is True
    assert time.perf_counter() - start < 2.0


@st.composite
def diffuse_orbit_pairs(draw):
    """y on 0-3 atoms and 1-4 diffuse pieces, with masses in parts of 1-9
    and values in -2..3 so that levels tie, drawn from a splitmix64 seed
    to keep the draws per example few; x is y, y with its pieces reversed,
    or a seeded orbit sample."""
    n_atoms, n_pieces = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    parts = [rng.randint(1, 9) for _ in range(n_atoms + n_pieces)]
    values = [Fraction(rng.randint(-2, 3)) for _ in parts]
    masses = [Fraction(p, sum(parts)) for p in parts]
    space = MeasureSpace(tuple((f"a{i}", masses[i]) for i in range(n_atoms)), sum(masses[n_atoms:]))
    atom_values = {f"a{i}": values[i] for i in range(n_atoms)}
    y = SimpleFunction(space, atom_values, tuple(zip(values[n_atoms:], masses[n_atoms:])))
    x = draw(st.sampled_from(("y", "reversed", "sample", "sample")))
    if x == "reversed":
        return SimpleFunction(space, atom_values, y.diffuse_pieces[::-1]), y
    if x == "sample":
        return sample_orbit(y, rng.next_u64()), y
    return y, y


def test_oracle_matches_criterion_on_mixed_and_atomless_spaces():
    """The halved-level model against the criterion: 500 examples, both
    verdicts met, within 2 s."""
    verdicts = []

    @settings(max_examples=500)
    @given(diffuse_orbit_pairs())
    def agree(pair):
        x, y = pair
        verdict = oracle_extreme(x, y)
        assert verdict == check_extreme(x, y).extreme
        verdicts.append(verdict)

    start = time.perf_counter()
    agree()
    assert time.perf_counter() - start < 2.0
    assert len(verdicts) >= 500 and set(verdicts) == {True, False}


def test_oracle_on_diffuse_levels():
    """A diffuse level off y's tight lines is two carriers, never one: the
    flat average of (4, 0) is not extreme, and neither is a diffuse level
    above an atom when the slack on it is not flat. Two pieces at one
    value make one level."""
    y = mkdiffuse([(4, "1/2"), (0, "1/2")])
    assert oracle_extreme(y, y) is True
    assert oracle_extreme(mkdiffuse([(2, "1")]), y) is False
    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    y3 = SimpleFunction(space, {"e": 0}, ((Fraction(4), frac("1/4")), (Fraction(2), frac("1/4"))))
    x3 = SimpleFunction(space, {"e": 3}, ((Fraction(0), frac("1/4")), (Fraction(0), frac("1/4"))))
    assert oracle_extreme(x3, y3) is check_extreme(x3, y3).extreme is True
    assert oracle_extreme(SimpleFunction(space, {"e": 1}, ((Fraction(2), frac("1/2")),)), y3) is False


@st.composite
def atomic_orbit_pairs(draw):
    y = draw(simple_functions(min_atoms=1, max_atoms=6, max_pieces=0))
    x = draw(st.sampled_from(("y", "sample", "vertex")))
    if x == "sample":
        return sample_orbit(y, draw(st.integers(0, 2**64 - 1))), y
    if x == "vertex" and len(y.space.atoms) <= 4:
        return draw(st.sampled_from(enumerate_extreme(y))), y
    return y, y


def _relabel(f, order):
    atoms = f.space.atoms
    space = MeasureSpace(tuple((f"b{k}", atoms[i][1]) for k, i in enumerate(order)), Fraction(0))
    return SimpleFunction(space, {f"b{k}": f.atom_values[atoms[i][0]] for k, i in enumerate(order)})


@given(
    atomic_orbit_pairs(),
    st.randoms(use_true_random=False),
    st.fractions(min_value=frac("1/7"), max_value=5, max_denominator=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_verdicts_invariant_under_relabelling_and_affine_maps(pair, random, a, b):
    x, y = pair
    order = list(range(len(y.space.atoms)))
    random.shuffle(order)
    expected = oracle_extreme(x, y)
    assert check_extreme(x, y).extreme == expected
    images = [
        (_relabel(x, order), _relabel(y, order)),
        (x.map_values(lambda v: a * v + b), y.map_values(lambda v: a * v + b)),
    ]
    for x_image, y_image in images:
        assert oracle_extreme(x_image, y_image) == expected
        assert check_extreme(x_image, y_image).extreme == expected


@given(simple_functions(max_atoms=4, max_pieces=0, min_atoms=2))
def test_vertices_laid_out_on_an_atomless_space_follow_ryff(y):
    """Each vertex x of the orbit of an atomic y, its carriers laid end to
    end as the pieces of an atomless space, is equimeasurable with x. On an
    atomless space the extreme points of the orbit are the functions
    equimeasurable with y (Ryff), so on that function and on its
    refinements the criterion and the oracle both give that answer, and
    every non-extreme verdict's witness verifies. The levels there are
    diffuse, so a level of one piece must not pass for a single atom."""
    space = MeasureSpace((), ONE)
    for x in enumerate_extreme(y):
        moved = SimpleFunction(space, {}, tuple(x.weighted_values()))
        for f in (moved, refine_diffuse(moved, 2), refine_diffuse(moved, 3)):
            verdict = check_extreme(f, y)
            assert verdict.extreme == oracle_extreme(f, y) == (rearrange(f) == rearrange(y))
            assert verdict.extreme or verify_witness(f, y, verdict.witness)


def test_oracle_errors():
    with pytest.raises(NotInOrbit):
        oracle_extreme(mkatomic([3, 1]), mkatomic([2, 2]))
    with pytest.raises(SizeLimit):
        enumerate_extreme(mkatomic([0] * 7, weights=[Fraction(1, 7)] * 7))


def test_subset_description_matches_majorisation():
    """Exhaustive: on small atomic spaces the subset polytope description
    coincides with the breakpoint majorisation check."""
    space = MeasureSpace(
        (("a", frac("1/2")), ("b", frac("1/4")), ("c", frac("1/4"))), Fraction(0)
    )
    y = SimpleFunction(space, {"a": 2, "b": 1, "c": 0})
    grid = [Fraction(v, 2) for v in range(-2, 7)]
    for values in product(grid, repeat=3):
        x = SimpleFunction(space, dict(zip(("a", "b", "c"), values)))
        direct = majorise_check(rearrange(x), rearrange(y)).holds
        assert reference_contains(x, rearrange(y)) == direct


def test_enumerate_examples():
    assert [
        tuple(f.atom_values[a] for a in ("a0", "a1")) for f in enumerate_extreme(mkatomic([3, 1]))
    ] == [(1, 3), (3, 1)]
    assert [
        tuple(f.atom_values[a] for a in ("a0", "a1")) for f in enumerate_extreme(mkatomic([2, 2]))
    ] == [(2, 2)]
    space = MeasureSpace((("A", frac("2/3")), ("B", frac("1/3"))), Fraction(0))
    y = SimpleFunction(space, {"A": 3, "B": 0})
    points = {
        (f.atom_values["A"], f.atom_values["B"]) for f in enumerate_extreme(y)
    }
    assert points == {(Fraction(3), Fraction(0)), (frac("3/2"), Fraction(3))}


def test_enumerate_outputs_are_orbit_vertices():
    rng = SplitMix64(77)
    for _ in range(10):
        n = rng.randint(2, 4)
        denom = 8
        cuts = sorted({rng.randint(1, denom - 1) for _ in range(n - 1)})
        if len(cuts) != n - 1:
            continue
        bounds = [0] + cuts + [denom]
        weights = [Fraction(b - a, denom) for a, b in zip(bounds, bounds[1:])]
        y = mkatomic([rng.randint(-2, 5) for _ in range(n)], weights=weights)
        points = enumerate_extreme(y)
        assert points
        for f in points:
            report = majorise_check(rearrange(f), rearrange(y))
            assert report.holds and report.total_gap == 0
            assert oracle_extreme(f, y)
        # no strict convex combination of two distinct outputs is extreme
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                mid = scale_function(add_functions(points[i], points[j]), frac("1/2"))
                assert not oracle_extreme(mid, y)


def _solve_exact(rows, rhs):
    """Solve a square rational system by Gaussian elimination; None if
    singular. Independent of the library's rank code."""
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        lead = a[col][col]
        a[col] = [entry / lead for entry in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [e - factor * p for e, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_force_vertices(y):
    """All vertices of the orbit polytope by solving every (n-1)-subset of
    inequalities as equalities together with the total-equality constraint,
    then filtering for feasibility. Completeness oracle for enumerate."""
    space = y.space
    n = len(space.atoms)
    weights = [w for _, w in space.atoms]
    y_scale = rearrange(y)
    full = frozenset(range(n))
    vertices = set()
    for chosen in combinations([s for s in subsets(n) if s != full], n - 1):
        rows = [[weights[i] if i in s else Fraction(0) for i in range(n)] for s in chosen]
        rows.append(list(weights))
        rhs = [bound(space, y_scale, s) for s in chosen + (full,)]
        solution = _solve_exact(rows, rhs)
        if solution is None:
            continue
        candidate = SimpleFunction(
            space, {space.atoms[i][0]: solution[i] for i in range(n)}
        )
        if reference_contains(candidate, y_scale):
            vertices.add(tuple(solution))
    return vertices


def test_enumerate_matches_brute_force_vertex_enumeration():
    rng = SplitMix64(13)
    for _ in range(12):
        n = rng.randint(2, 4)
        denom = 8
        cuts = sorted({rng.randint(1, denom - 1) for _ in range(n - 1)})
        if len(cuts) != n - 1:
            continue
        bounds = [0] + cuts + [denom]
        weights = [Fraction(b - a, denom) for a, b in zip(bounds, bounds[1:])]
        y = mkatomic([rng.randint(-2, 5) for _ in range(n)], weights=weights)
        expected = brute_force_vertices(y)
        found = {
            tuple(f.atom_values[aid] for aid, _ in f.space.atoms)
            for f in enumerate_extreme(y)
        }
        assert found == expected


def enumerate_digest(instances: int = 48) -> str:
    """sha256 over the serialised enumerate_extreme output, in order, for
    seeded atomic y on 1 to 6 atoms. Values come from {-2, ..., 2} over 1
    or 2, so they repeat; every other y has equal weights, the rest have
    weights from parts 1 to 3, which also tie."""
    rng = SplitMix64(18)
    digest = hashlib.sha256()
    for case in range(instances):
        n = case % 6 + 1
        values = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        parts = [1] * n if case // 6 % 2 == 0 else [rng.randint(1, 3) for _ in range(n)]
        y = mkatomic(values, weights=[Fraction(p, sum(parts)) for p in parts])
        points = [serialize_function(f) for f in enumerate_extreme(y)]
        digest.update(json.dumps(points).encode() + b"\n")
    return digest.hexdigest()


def test_enumerate_digest_is_pinned():
    """Captured from the run/average recursion that the greedy vectors
    replaced."""
    assert enumerate_digest() == "7c59ae141a607b0f4e1ddb3f5596a921be46ab300b392e585e8a536a96cf6596"


def test_oracle_and_enumerate_build_no_fraction_report(monkeypatch):
    """Orbit membership is read off y's supporting lines, in integers."""
    built = []
    init = MajorisationReport.__init__

    def counting(report, *args):
        built.append(report)
        init(report, *args)

    monkeypatch.setattr(MajorisationReport, "__init__", counting)
    y = mkatomic([4, 2, 2, 0], weights=[frac("1/2"), frac("1/4"), frac("1/8"), frac("1/8")])
    points = enumerate_extreme(y)
    assert len(points) > 1
    for x in (*points, partial_average(y, ["a0", "a1"])):
        oracle_extreme(x, y)
    assert built == []


def test_enumerate_invariant_checks_are_live(monkeypatch):
    """Each greedy vector must lie in the orbit and be a vertex; a membership
    or vertex test that says otherwise is an internal fault."""
    y = mkatomic([3, 1, 0])
    monkeypatch.setattr(orbit, "_vertex", lambda x, y_scale: False)
    with pytest.raises(InternalError, match="vertex"):
        enumerate_extreme(y)
    monkeypatch.undo()
    # bounds of twice the cumulative give greedy vectors of twice y's integral
    monkeypatch.setattr(orbit, "cumulative", lambda scale, s: 2 * cumulative(scale, s))
    with pytest.raises(InternalError, match="orbit"):
        enumerate_extreme(y)


def test_oracle_shares_no_logic_with_the_criterion():
    """The oracle is the criterion's independent cross-check: it reaches neither the
    criterion's slack walk nor its verdicts."""
    names = {"_slack_walk", "_holds", "majorise_check", "evaluate_conditions", "check_extreme"}
    assert not names & set(vars(orbit))


def test_partial_average_examples():
    y = mkatomic([3, 1])
    averaged = partial_average(y, atom_ids=["a0", "a1"])
    assert dict(averaged.atom_values) == {"a0": Fraction(2), "a1": Fraction(2)}
    assert partial_average(y) is y


def test_partial_average_rejects_repeated_carriers():
    """A repeated carrier would be weighted twice: on weights 1/2, 1/2 and
    values 4, 0 the 'mean' over a, a, b is 8/3 on both atoms, which f does
    not majorise."""
    f = mkatomic([4, 0], ids=["a", "b"])
    with pytest.raises(SchemaError):
        partial_average(f, ["a", "a", "b"])
    space = MeasureSpace((("a", frac("1/2")),), frac("1/2"))
    g = SimpleFunction(space, {"a": 4}, ((Fraction(0), frac("1/4")), (Fraction(2), frac("1/4"))))
    with pytest.raises(SchemaError):
        partial_average(g, ["a"], [1, 1])
    averaged = partial_average(g, ["a"], [0, 1])
    assert majorise_check(rearrange(averaged), rearrange(g)).holds


def test_sample_orbit_examples():
    y = mkatomic([4, 2, 0], weights=[frac("1/3")] * 3)
    assert sample_orbit(y, 5, rounds=0) == y
    sampled = sample_orbit(y, 42)
    assert majorise_check(rearrange(sampled), rearrange(y)).holds
    # determinism: same seed, same output
    assert sample_orbit(y, 42) == sampled


def _pieces_as_atoms(f):
    """Model a mixed-space function on the purely atomic space whose atoms
    are f's atoms plus one atom per diffuse piece."""
    atoms = list(f.space.atoms)
    values = dict(f.atom_values)
    for index, (value, mass) in enumerate(f.diffuse_pieces):
        atoms.append((f"p{index}", mass))
        values[f"p{index}"] = value
    space = MeasureSpace(tuple(atoms), Fraction(0))
    return SimpleFunction(space, values)


def test_mixed_space_one_sided_oracle():
    """Piecewise-constant functions form a face section of the orbit, so a
    non-vertex of the refined atomic polytope is a fortiori non-extreme in
    the mixed space; the refinement can only add non-extremality
    certificates, never remove them."""
    from majorbit.extremality import check_extreme
    from majorbit.measure import refine_diffuse

    rng = SplitMix64(55)
    space = MeasureSpace(
        (("e", frac("1/4")),), frac("3/4")
    )
    checked = 0
    for _ in range(25):
        y = SimpleFunction(
            space,
            {"e": Fraction(rng.randint(-2, 4))},
            (
                (Fraction(rng.randint(-2, 4)), frac("1/4")),
                (Fraction(rng.randint(-2, 4)), frac("1/2")),
            ),
        )
        x = sample_orbit(y, rng.next_u64())
        for k in (1, 2):
            model = _pieces_as_atoms(refine_diffuse(x, k))
            if len(model.space.atoms) > 6:
                continue
            if not oracle_extreme(model, y):
                checked += 1
                assert not check_extreme(x, y).extreme
    assert checked > 0


def test_sample_orbit_mixed_space():
    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    y = SimpleFunction(
        space, {"e": 0}, ((Fraction(4), frac("1/4")), (Fraction(2), frac("1/4")))
    )
    for seed in range(10):
        sampled = sample_orbit(y, seed)
        assert majorise_check(rearrange(sampled), rearrange(y)).holds
