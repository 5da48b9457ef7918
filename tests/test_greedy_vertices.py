"""Ground truth at n in the hundreds from the greedy algorithm (Edmonds,
"Submodular functions, matroids, and certain polyhedra", 1970).

On an atomic space with weights w, x is majorised by y exactly when
z = x * w lies in the base polytope of A -> g(w(A)), g(s) being the
integral of y's decreasing rearrangement over [0, s]: g is concave and
w(A) is modular, so the set function is submodular. Its vertices are the
greedy vectors z(pi_k) = g(W_k) - g(W_(k-1)), W_k the weight of the first
k atoms of an ordering pi. So x = z / w is extreme for every ordering, and
the midpoint of two distinct greedy vectors is not.

Everything the test compares against is computed here with plain
Fractions from y's atoms, not through ``majorbit.scales``.
"""

import time
from bisect import bisect_left
from fractions import Fraction

import pytest

from majorbit.extremality import check_extreme
from majorbit.orbit import oracle_extreme, partial_average
from majorbit.prng import SplitMix64
from majorbit.witness import SPLIT_LEVEL, THREE_VALUES, TWO_VALUES, verify_witness

from conftest import mkatomic
from reference_core import gray_oracle


def instance(seed: int, n: int):
    """y on n atoms with weights in {1, 2, 3} / total and values in
    [-6, 6], so that levels of y repeat and span several atoms."""
    rng = SplitMix64(seed)
    parts = [rng.randint(1, 3) for _ in range(n)]
    weights = [Fraction(p, sum(parts)) for p in parts]
    return weights, [Fraction(rng.randint(-6, 6)) for _ in range(n)]


class YScale:
    """y's decreasing rearrangement as steps with their ends and prefix
    integrals, and g, its integral over [0, s]."""

    def __init__(self, weights, values):
        self.steps, self.ends, self.integrals = [], [], []
        end = integral = Fraction(0)
        for value, weight in sorted(zip(values, weights), key=lambda p: p[0], reverse=True):
            self.steps.append((value, end, end + weight))
            self.integrals.append(integral)
            end += weight
            integral += value * weight
            self.ends.append(end)

    def g(self, s: Fraction) -> Fraction:
        k = min(bisect_left(self.ends, s), len(self.steps) - 1)
        value, start, _ = self.steps[k]
        return self.integrals[k] + value * (s - start)


def greedy(weights, ys, order) -> list[Fraction]:
    """The vertex of the ordering: x(pi_k) = (g(W_k) - g(W_(k-1))) / w(pi_k)."""
    x = [Fraction(0)] * len(weights)
    reached = below = Fraction(0)
    for atom in order:
        reached += weights[atom]
        above = ys.g(reached)
        x[atom] = (above - below) / weights[atom]
        below = above
    return x


def majorised(weights, values, ys) -> bool:
    """Partial integrals of the decreasing rearrangement never exceed g,
    with equal totals; both are linear between the points checked."""
    mass = integral = Fraction(0)
    for value, weight in sorted(zip(values, weights), key=lambda p: p[0], reverse=True):
        mass += weight
        integral += value * weight
        if integral > ys.g(mass):
            return False
    return integral == ys.g(Fraction(1))


def expected_conditions(verdict, ys) -> tuple:
    """Each interval's condition read off y's steps: 1 when y's scale is
    the interval's value throughout, 2 when the interval is a single atom
    and y's scale integrates to value * length over it."""
    tags = []
    for iv in verdict.intervals:
        if all(v == iv.value for v, start, end in ys.steps if start < iv.t2 and iv.t1 < end):
            tags.append(1)
        elif iv.kind.is_single_atom and ys.g(iv.t2) - ys.g(iv.t1) == iv.value * iv.length:
            tags.append(2)
        else:
            tags.append(None)
    return tuple(tags)


def orderings(seed: int, n: int, count: int) -> list[list[int]]:
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        out.append(order)
    return out


def check_pair(weights, values, order_a, order_b):
    """Decide the two greedy vectors and their midpoint; return the
    verdicts (vertex, vertex, midpoint)."""
    ys = YScale(weights, values)
    y = mkatomic(values, weights=weights)
    a, b = (greedy(weights, ys, order) for order in (order_a, order_b))
    assert a != b
    mid = [(p + q) / 2 for p, q in zip(a, b)]
    verdicts = []
    for point in (a, b, mid):
        assert majorised(weights, point, ys)
        x = mkatomic(point, weights=weights)
        verdict = check_extreme(x, y)
        assert verdict.conditions == expected_conditions(verdict, ys)
        verdicts.append((x, y, verdict))
    assert [v.extreme for _, _, v in verdicts] == [True, True, False]
    x, _, verdict = verdicts[2]
    w = verdict.witness
    assert verify_witness(x, y, w)
    plus = [w.x_plus.atom_values[aid] for aid in x.space.atom_ids]
    minus = [w.x_minus.atom_values[aid] for aid in x.space.atom_ids]
    assert plus != minus and [(p + q) / 2 for p, q in zip(plus, minus)] == mid
    assert majorised(weights, plus, ys) and majorised(weights, minus, ys)
    return verdicts


def test_greedy_vertices_and_midpoints_at_n_200():
    """Random orderings: the vertices read condition 2 on atoms that
    straddle a step of y. Most midpoints have a level of several atoms to
    split; on these seeds some need a three-value witness instead."""
    tags, conditions = set(), set()
    for seed in (4, 5, 6):
        weights, values = instance(seed, 200)
        orders = orderings(seed + 100, 200, 3)
        for order_a, order_b in zip(orders, orders[1:]):
            verdicts = check_pair(weights, values, order_a, order_b)
            conditions.update(verdicts[0][2].conditions)
            tags.add(verdicts[2][2].witness.perturbation.case_tag)
    assert conditions == {1, 2} and THREE_VALUES in tags


def test_greedy_midpoints_of_swapped_orderings():
    """Orderings one adjacent transposition apart: the midpoint moves only
    the two swapped atoms, which gives two-value witnesses."""
    weights, values = instance(4, 200)
    (order,) = orderings(104, 200, 1)
    vertex = greedy(weights, YScale(weights, values), order)
    tags = []
    for k in range(199):
        swapped = order[:k] + [order[k + 1], order[k]] + order[k + 2:]
        if len(tags) < 12 and greedy(weights, YScale(weights, values), swapped) != vertex:
            verdicts = check_pair(weights, values, order, swapped)
            tags.append(verdicts[2][2].witness.perturbation.case_tag)
    assert {SPLIT_LEVEL, TWO_VALUES} <= set(tags)


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_greedy_vertices_agree_with_the_oracle(n):
    """The oracle and the 2^n Gray-code reference both read the criterion's
    verdicts on each distinct greedy pair and its midpoint."""
    weights, values = instance(n, n)
    compared = 0
    for order_a, order_b in zip(*[iter(orderings(n + 200, n, 6))] * 2):
        ys = YScale(weights, values)
        if greedy(weights, ys, order_a) == greedy(weights, ys, order_b):
            continue
        compared += 1
        for x, y, verdict in check_pair(weights, values, order_a, order_b):
            assert oracle_extreme(x, y) is verdict.extreme
            assert gray_oracle(x, y) is verdict.extreme
    assert compared > 0


def test_oracle_at_n_1000():
    """A greedy vector at n = 1000 is a vertex, and averaging two of its
    atoms that differ gives a point that is not, each decided in well
    under a second."""
    weights, values = instance(10, 1000)
    (order,) = orderings(1010, 1000, 1)
    vertex = mkatomic(greedy(weights, YScale(weights, values), order), weights=weights)
    y = mkatomic(values, weights=weights)
    first = vertex.space.atom_ids[order[0]]
    other = next(aid for aid in vertex.space.atom_ids if vertex.atom_values[aid] != vertex.atom_values[first])
    averaged = partial_average(vertex, [first, other])
    start = time.perf_counter()
    assert oracle_extreme(vertex, y) is True
    assert oracle_extreme(averaged, y) is False
    assert time.perf_counter() - start < 1.0
