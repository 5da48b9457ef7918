from fractions import Fraction

import pytest
from hypothesis import given, settings

from majorbit.errors import NotInOrbit, ValueNotAttained
from majorbit.extremality import (
    DIFFUSE,
    MIXED,
    MULTIPLE_ATOMS,
    SINGLE_ATOM,
    check_extreme,
    classify_level,
    constancy_intervals,
)
from majorbit.measure import MeasureSpace, SimpleFunction
from majorbit.orbit import oracle_extreme, sample_orbit
from majorbit.prng import SplitMix64
from majorbit.scales import cumulative, rearrange
from majorbit.witness import verify_witness

from conftest import frac, mkatomic, mkdiffuse, simple_functions
from reference_core import perturbation_search_finds_witness


def test_constancy_intervals_examples():
    x = mkatomic([3, 1])
    ivs = constancy_intervals(x)
    assert [(iv.t1, iv.t2, iv.value, iv.kind.tag) for iv in ivs] == [
        (0, frac("1/2"), 3, SINGLE_ATOM),
        (frac("1/2"), 1, 1, SINGLE_ATOM),
    ]

    flat = mkatomic([2, 2])
    (only,) = constancy_intervals(flat)
    assert (only.t1, only.t2, only.kind.tag) == (0, 1, MULTIPLE_ATOMS)

    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    mixed = SimpleFunction(space, {"e": 2}, ((Fraction(2), frac("1/2")),))
    (whole,) = constancy_intervals(mixed)
    assert (whole.t1, whole.t2, whole.value, whole.kind.tag) == (0, 1, 2, MIXED)


def test_classify_level_examples():
    f = mkatomic([3, 2, 2], weights=[frac("1/2"), frac("1/4"), frac("1/4")])
    assert classify_level(f, 3).tag == SINGLE_ATOM
    assert classify_level(f, 3).atom_ids == ("a0",)
    assert classify_level(f, 2).tag == MULTIPLE_ATOMS
    g = mkdiffuse([(4, "1/2"), (1, "1/2")])
    assert classify_level(g, 4).tag == DIFFUSE
    with pytest.raises(ValueNotAttained):
        classify_level(f, 7)


def test_check_extreme_permutation_case():
    y = mkatomic([3, 1])
    x = mkatomic([1, 3])
    verdict = check_extreme(x, y)
    assert verdict.extreme and verdict.conditions == (1, 1)


def test_check_extreme_average_not_extreme():
    verdict = check_extreme(mkatomic([2, 2]), mkatomic([3, 1]))
    assert not verdict.extreme
    assert verdict.witness is not None


def test_check_extreme_weighted_golden():
    space = MeasureSpace(
        (("a", frac("1/2")), ("b", frac("1/4")), ("c", frac("1/4"))), Fraction(0)
    )
    y = SimpleFunction(space, {"a": 4, "b": 2, "c": 0})
    x = SimpleFunction(space, {"a": 3, "b": 4, "c": 0})
    verdict = check_extreme(x, y)
    assert verdict.extreme
    assert verdict.conditions == (1, 2, 1)
    middle = verdict.intervals[1]
    assert (middle.t1, middle.t2, middle.value) == (frac("1/4"), frac("3/4"), 3)
    # the condition-2 integral, evaluated by hand: 4*(1/4) + 2*(1/4) = 3*(1/2)
    ys = rearrange(y)
    assert cumulative(ys, middle.t2) - cumulative(ys, middle.t1) == middle.value * (
        middle.t2 - middle.t1
    )


def test_check_extreme_half_diffuse_golden():
    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    y = SimpleFunction(
        space, {"e": 0}, ((Fraction(4), frac("1/4")), (Fraction(2), frac("1/4")))
    )
    x = SimpleFunction(space, {"e": 3}, ((Fraction(0), frac("1/2")),))
    verdict = check_extreme(x, y)
    assert verdict.extreme and verdict.conditions == (2, 1)


def test_not_in_orbit_raises():
    with pytest.raises(NotInOrbit):
        check_extreme(mkatomic([3, 1]), mkatomic([2, 2]))


def test_y_may_live_on_a_different_space():
    """Only the scale of y enters the criterion."""
    y_diffuse = mkdiffuse([(3, "1/2"), (1, "1/2")])
    x = mkatomic([1, 3])
    verdict = check_extreme(x, y_diffuse)
    assert verdict.extreme and verdict.conditions == (1, 1)
    assert not check_extreme(mkatomic([2, 2]), y_diffuse).extreme


@given(simple_functions(max_atoms=0, max_pieces=4))
@settings(max_examples=30)
def test_ryff_specialization(y):
    """Atomless: extreme iff equimeasurable."""
    rng = SplitMix64(11)
    x = sample_orbit(y, rng.next_u64())
    assert check_extreme(x, y).extreme == (rearrange(x) == rearrange(y))
    shuffled = SimpleFunction(y.space, {}, tuple(reversed(y.diffuse_pieces)))
    assert check_extreme(shuffled, y).extreme


def test_hlp_specialization():
    y = mkatomic([4, 2, 0], weights=[frac("1/3")] * 3)
    for perm in ([4, 2, 0], [0, 4, 2], [2, 0, 4]):
        assert check_extreme(mkatomic(perm, weights=[frac("1/3")] * 3), y).extreme
    assert not check_extreme(mkatomic([2, 2, 2], weights=[frac("1/3")] * 3), y).extreme


def test_sufficiency_no_witness_by_search():
    """Extreme verdicts: a randomized direction/step search finds nothing."""
    space = MeasureSpace(
        (("a", frac("1/2")), ("b", frac("1/4")), ("c", frac("1/4"))), Fraction(0)
    )
    y = SimpleFunction(space, {"a": 4, "b": 2, "c": 0})
    x = SimpleFunction(space, {"a": 3, "b": 4, "c": 0})
    assert not perturbation_search_finds_witness(x, y, SplitMix64(5), attempts=150)
    # negative control: the search does find directions at a non-extreme point
    assert perturbation_search_finds_witness(
        mkatomic([2, 2]), mkatomic([3, 1]), SplitMix64(5), attempts=150
    )


def test_necessity_witness_always_valid():
    rng = SplitMix64(23)
    space = MeasureSpace(
        (("a", frac("1/2")), ("b", frac("1/4")), ("c", frac("1/4"))), Fraction(0)
    )
    y = SimpleFunction(space, {"a": 4, "b": 2, "c": 0})
    found = 0
    for _ in range(40):
        x = sample_orbit(y, rng.next_u64())
        verdict = check_extreme(x, y)
        if not verdict.extreme:
            found += 1
            assert verify_witness(x, y, verdict.witness)
    assert found > 0


def test_oracle_agreement_small():
    rng = SplitMix64(99)
    for _ in range(60):
        n = rng.randint(2, 5)
        weights = [Fraction(1, n)] * n
        y = mkatomic([rng.randint(-3, 6) for _ in range(n)], weights=weights)
        x = sample_orbit(y, rng.next_u64())
        assert check_extreme(x, y).extreme == oracle_extreme(x, y)


@given(simple_functions(max_atoms=2, max_pieces=2))
@settings(max_examples=25)
def test_strict_slack_regions_are_condition2(y):
    """For an extreme x, any point of strict slack lies in a condition-2
    interval (the scale is flat there and carried by one atom)."""
    rng = SplitMix64(3)
    x = sample_orbit(y, rng.next_u64())
    verdict = check_extreme(x, y)
    if not verdict.extreme:
        return
    xs, ys = rearrange(x), rearrange(y)
    points = sorted(set(xs.breakpoints) | set(ys.breakpoints))
    probes = set(points)
    probes.update((a + b) / 2 for a, b in zip(points, points[1:]))
    for t in probes:
        if cumulative(ys, t) > cumulative(xs, t):
            tags = [
                cond
                for iv, cond in zip(verdict.intervals, verdict.conditions)
                if iv.t1 < t < iv.t2
            ]
            assert all(tag == 2 for tag in tags)


def test_verdict_serialization():
    verdict = check_extreme(mkatomic([2, 2]), mkatomic([3, 1]))
    doc = verdict.serialize()
    assert doc["verdict"] == "not_extreme"
    assert doc["intervals"][0]["condition"] is None
    assert "witness" in doc
    assert check_extreme(mkatomic([1, 3]), mkatomic([3, 1])).serialize()[
        "intervals"
    ][0]["condition"] == 1


def test_no_state_outlives_a_request():
    """Tables and scales live on the functions of a request, so a second
    batch of the same 300 decisions leaves no traced memory behind."""
    import gc
    import tracemalloc

    from majorbit.selftest import _random_instance

    def batch():
        rng = SplitMix64(21)
        makers = [
            lambda: _random_instance(rng, rng.randint(2, 6), 0),
            lambda: _random_instance(rng, 0, rng.randint(2, 5)),
            lambda: _random_instance(rng, rng.randint(1, 3), rng.randint(1, 3)),
        ]
        for i in range(300):
            y = makers[i % 3]()
            check_extreme(sample_orbit(y, rng.next_u64()), y).serialize()

    batch()  # first use fills interpreter caches
    tracemalloc.start()
    try:
        batch()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        batch()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024
