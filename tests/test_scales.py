from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from majorbit.errors import DomainError, MassMismatchError
from majorbit.measure import MeasureSpace, SimpleFunction, add_functions, common_refinement
from majorbit.scales import (
    StepScale,
    add_scales,
    co_scale,
    cumulative,
    distribution,
    majorise_check,
    rearrange,
    singular_scale,
    submajorise_check,
)

from conftest import frac, mkatomic, function_pairs, simple_functions
from reference_core import steps_on_interval


def scale(*pairs):
    return StepScale.from_pairs((Fraction(v), Fraction(m)) for v, m in pairs)


def test_rearrange_examples():
    f = mkatomic([1, 3, 2], weights=[frac("1/2"), frac("1/4"), frac("1/4")])
    assert rearrange(f).steps == (
        (Fraction(3), Fraction(1, 4)),
        (Fraction(2), Fraction(1, 4)),
        (Fraction(1), Fraction(1, 2)),
    )
    constant = mkatomic([5, 5, 5])
    assert rearrange(constant).steps == ((Fraction(5), Fraction(1)),)

    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    g = SimpleFunction(
        space, {"e": 0}, ((Fraction(4), frac("1/4")), (Fraction(2), frac("1/4")))
    )
    assert rearrange(g).steps == (
        (Fraction(4), Fraction(1, 4)),
        (Fraction(2), Fraction(1, 4)),
        (Fraction(0), Fraction(1, 2)),
    )


def test_distribution_examples():
    f = mkatomic([1, 3, 2], weights=[frac("1/2"), frac("1/4"), frac("1/4")])
    assert distribution(f, frac("3/2")) == frac("1/2")
    assert distribution(f, 3) == 0
    assert distribution(f, -10) == 1


@given(simple_functions())
def test_equimeasurability(f):
    """distribution(f, s) matches the distribution of the rearrangement."""
    probe_values = sorted({v for v, _ in f.weighted_values()})
    probes = probe_values + [v - frac("1/3") for v in probe_values] + [probe_values[-1] + 1]
    r = rearrange(f)
    for s in probes:
        assert distribution(f, s) == sum((l for v, l in r.steps if v > s), Fraction(0))


def test_co_scale_examples():
    f = mkatomic([3, 1, 1, 1], weights=[frac("1/4")] * 4)
    assert co_scale(f).steps == ((Fraction(1), frac("3/4")), (Fraction(3), frac("1/4")))
    constant = mkatomic([5])
    assert co_scale(constant).steps == ((Fraction(5), Fraction(1)),)


@given(simple_functions())
def test_co_scale_is_negated_rearrangement(f):
    """Pointwise identity: the increasing rearrangement at t equals minus
    the decreasing rearrangement of -f at t."""
    negated = rearrange(f.map_values(lambda v: -v))
    assert co_scale(f).steps == tuple((-v, m) for v, m in negated.steps)


def test_singular_scale_examples():
    f = mkatomic([1, -1])
    assert singular_scale(f).steps == ((Fraction(1), Fraction(1)),)
    g = mkatomic([2, 3, 1], weights=[frac("1/3")] * 3)
    assert singular_scale(g) == rearrange(g)
    h = mkatomic([-4, 2], weights=[frac("1/4"), frac("3/4")])
    assert singular_scale(h).steps == (
        (Fraction(4), frac("1/4")),
        (Fraction(2), frac("3/4")),
    )


def test_cumulative_examples():
    s = scale((3, "1/4"), (2, "1/4"), (1, "1/2"))
    assert cumulative(s, frac("1/4")) == frac("3/4")
    assert cumulative(s, 0) == 0
    assert cumulative(s, 1) == frac("7/4")
    assert cumulative(s, frac("3/8")) == frac("3/4") + frac("1/4")
    with pytest.raises(DomainError):
        cumulative(s, frac("3/2"))
    with pytest.raises(DomainError):
        cumulative(s, -1)


@given(simple_functions())
def test_trace_identity(f):
    """The integral of the scale equals the integral of the function and of
    the increasing rearrangement."""
    r = rearrange(f)
    assert cumulative(r, 1) == f.integral()
    assert sum(v * l for v, l in co_scale(f).steps) == f.integral()


@given(simple_functions())
def test_shift_property(f):
    shifted = rearrange(f.map_values(lambda v: v + frac("7/3")))
    assert shifted.steps == tuple((v + frac("7/3"), m) for v, m in rearrange(f).steps)


def test_add_scales_examples():
    assert add_scales(scale((1, 1)), scale((2, 1))).steps == ((Fraction(3), Fraction(1)),)
    left = scale((3, "1/2"), (1, "1/2"))
    right = scale((2, "1/4"), (0, "3/4"))
    assert add_scales(left, right).steps == (
        (Fraction(5), frac("1/4")),
        (Fraction(3), frac("1/4")),
        (Fraction(1), frac("1/2")),
    )
    zero = scale((0, 1))
    assert add_scales(left, zero) == left


@given(function_pairs())
def test_triangle_inequality(pair):
    f, g = pair
    bound = add_scales(rearrange(f), rearrange(g))
    assert majorise_check(rearrange(add_functions(f, g)), bound).holds


def test_majorise_examples():
    x = mkatomic([2, 2])
    y = mkatomic([3, 1])
    report = majorise_check(rearrange(x), rearrange(y))
    assert report.holds
    assert (frac("1/2"), frac("1/2")) in report.breakpoint_slacks
    assert report.total_gap == 0

    self_report = majorise_check(rearrange(y), rearrange(y))
    assert self_report.holds
    assert all(s == 0 for _, s in self_report.breakpoint_slacks)

    assert not majorise_check(rearrange(y), rearrange(x)).holds


@given(function_pairs())
def test_order_properties(pair):
    f, g = pair
    rf, rg = rearrange(f), rearrange(g)
    assert majorise_check(rf, rf).holds
    forward = majorise_check(rf, rg).holds
    backward = majorise_check(rg, rf).holds
    assert (forward and backward) == (rf == rg)


@given(function_pairs())
def test_breakpoint_sufficiency(pair):
    """Evaluating on a refined grid never changes the verdict."""
    f, g = pair
    rf, rg = rearrange(f), rearrange(g)
    verdict = majorise_check(rf, rg).holds
    grid = sorted(
        set(rf.breakpoints)
        | set(rg.breakpoints)
        | {Fraction(i, 32) for i in range(33)}
    )
    fine = all(cumulative(rf, t) <= cumulative(rg, t) for t in grid) and cumulative(
        rf, 1
    ) == cumulative(rg, 1)
    assert fine == verdict


def test_submajorise_examples():
    assert submajorise_check(mkatomic([1, -1]), mkatomic([2, 0]))
    f = mkatomic([3, -2])
    assert submajorise_check(f, f)
    assert not submajorise_check(mkatomic([3, 0]), mkatomic([1, 1]))


@given(simple_functions())
def test_cut_identities(f):
    """Restricting to the top-mass-t level sets truncates the scale, and the
    complement continues it."""
    r = rearrange(f)
    carriers = sorted(f.weighted_values(), key=lambda p: p[0], reverse=True)
    for t in r.breakpoints:
        top, rest, acc = [], [], Fraction(0)
        for value, mass in carriers:
            if acc + mass <= t:
                top.append((value, mass))
            else:
                rest.append((value, mass))
            acc += mass
        restricted = []
        for value, mass in sorted(top, key=lambda p: p[0], reverse=True):
            if restricted and restricted[-1][0] == value:
                restricted[-1] = (value, restricted[-1][1] + mass)
            else:
                restricted.append((value, mass))
        assert tuple(restricted) == steps_on_interval(r, 0, t)
        remainder = []
        for value, mass in sorted(rest, key=lambda p: p[0], reverse=True):
            if remainder and remainder[-1][0] == value:
                remainder[-1] = (value, remainder[-1][1] + mass)
            else:
                remainder.append((value, mass))
        assert tuple(remainder) == steps_on_interval(r, t, 1)


# plain linear walks over the steps: the reference for the cached profile


def walk_cumulative(scale, s):
    total, acc = Fraction(0), Fraction(0)
    for value, length in scale.steps:
        total += value * min(length, max(s - acc, 0))
        acc += length
    return total


def walk_value_at(scale, t):
    acc = Fraction(0)
    for value, length in scale.steps:
        acc += length
        if t < acc:
            return value


def walk_steps_on_interval(scale, lo, hi):
    out, acc = [], Fraction(0)
    for value, length in scale.steps:
        cut = min(acc + length, hi) - max(acc, lo)
        if cut > 0:
            out.append((value, cut))
        acc += length
    return tuple(out)


probe_fractions = st.fractions(min_value=0, max_value=1, max_denominator=24)


@given(simple_functions(), st.lists(probe_fractions, max_size=4))
def test_step_profile_matches_linear_walk(f, extra):
    r = rearrange(f)
    ends = list(r.breakpoints)
    starts = [Fraction(0)] + ends[:-1]
    mids = [(a + b) / 2 for a, b in zip(starts, ends)]
    points = sorted(set(starts + ends + mids + extra))
    for t in points:
        assert cumulative(r, t) == walk_cumulative(r, t)
        if t < 1:
            assert r.value_at(t) == walk_value_at(r, t)
    outside = [Fraction(-1, 3), Fraction(4, 3)]
    for lo in points + outside:
        for hi in points + outside:
            assert steps_on_interval(r, lo, hi) == walk_steps_on_interval(r, lo, hi)


@given(function_pairs())
def test_common_refinement_matches_breakpoint_union(pair):
    rf, rg = rearrange(pair[0]), rearrange(pair[1])
    points = sorted({Fraction(0)} | set(rf.breakpoints) | set(rg.breakpoints))
    expected = [
        (walk_value_at(rf, a), walk_value_at(rg, a), b - a)
        for a, b in zip(points, points[1:])
    ]
    assert list(common_refinement(rf.steps, rg.steps)) == expected


int_steps = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), max_size=5)


@st.composite
def step_list_pairs(draw):
    """Two integer step lists; in half of the draws the second cuts the
    first's total anew, so the totals agree."""
    a = draw(int_steps)
    total = sum(length for _, length in a)
    if not total or not draw(st.booleans()):
        return a, draw(int_steps)
    cuts = draw(st.sets(st.integers(1, total - 1))) if total > 1 else set()
    ends = [0, *sorted(cuts), total]
    return a, [(draw(st.integers(-3, 3)), hi - lo) for lo, hi in zip(ends, ends[1:])]


@given(step_list_pairs())
def test_common_refinement_edges(pair):
    """Unequal totals raise in both argument orders; equal totals yield
    lengths that sum to the total."""
    a, b = pair
    total = sum(length for _, length in a)
    for p, q in (a, b), (b, a):
        if total != sum(length for _, length in b):
            with pytest.raises(MassMismatchError):
                list(common_refinement(p, q))
        else:
            assert sum(length for *_, length in common_refinement(p, q)) == total
