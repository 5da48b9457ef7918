import json
from fractions import Fraction

import pytest

from majorbit.errors import CriterionSatisfied, DegenerateDirection, SchemaError
from majorbit.extremality import check_extreme, evaluate_conditions
from majorbit.measure import (
    MeasureSpace,
    SimpleFunction,
    add_functions,
    parse_function,
    scale_function,
    serialize_function,
)
from majorbit.orbit import sample_orbit
from majorbit.prng import SplitMix64
from majorbit.scales import cumulative, majorise_check, rearrange
from majorbit.witness import (
    SPLIT_LEVEL,
    THREE_VALUES,
    TWO_VALUES,
    Perturbation,
    WitnessPair,
    _positive_run,
    admissible_delta,
    build_witness,
    serialize_witness,
    verify_witness,
)

from conftest import frac, mkatomic, mkdiffuse
from reference_core import _slack_components, carriers, perturbed_region, steps_on_interval


def test_admissible_delta_basic():
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    u = mkatomic([1, -1])
    assert admissible_delta(x, y, u) == 1
    # direct confirmation at the endpoint and just beyond it
    for delta, expect in ((Fraction(1), True), (Fraction(33, 32), False)):
        plus = add_functions(x, scale_function(u, delta))
        minus = add_functions(x, scale_function(u, -delta))
        ok = (
            majorise_check(rearrange(plus), rearrange(y)).holds
            and majorise_check(rearrange(minus), rearrange(y)).holds
        )
        assert ok == expect


def test_admissible_delta_homogeneity():
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    u = mkatomic([1, -1])
    doubled = mkatomic([2, -2])
    assert admissible_delta(x, y, doubled) == admissible_delta(x, y, u) / 2


def test_admissible_delta_zero_slack():
    x = mkatomic([3, 1])
    u = mkatomic([1, -1])
    assert admissible_delta(x, x, u) == 0


def test_admissible_delta_zero_when_x_leaves_the_orbit():
    """x = (0, 1) has integral 1/2 against y's 0: at the end of the walk the
    drift of u = (1, -1) is 0 and x exceeds y, so no positive step exists."""
    assert admissible_delta(mkatomic([0, 1]), mkatomic([-2, 2]), mkatomic([1, -1])) == 0


def test_admissible_delta_degenerate():
    x = mkatomic([2, 2])
    zero = mkatomic([0, 0])
    with pytest.raises(DegenerateDirection):
        admissible_delta(x, mkatomic([3, 1]), zero)


def test_build_witness_split_level():
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    w = build_witness(x, y)
    assert w.perturbation.case_tag == SPLIT_LEVEL
    assert w.perturbation.delta == frac("1/2")
    assert [w.perturbation.u.atom_values[a] for a in ("a0", "a1")] == [1, -1]
    assert [w.x_plus.atom_values[a] for a in ("a0", "a1")] == [frac("5/2"), frac("3/2")]
    assert [w.x_minus.atom_values[a] for a in ("a0", "a1")] == [frac("3/2"), frac("5/2")]
    assert verify_witness(x, y, w)


def test_build_witness_three_values():
    x = mkatomic([5, 4, 3, 2], weights=[frac("1/4")] * 4)
    y = mkatomic([8, 4, 2, 0], weights=[frac("1/4")] * 4)
    w = build_witness(x, y)
    assert w.perturbation.case_tag == THREE_VALUES
    assert w.perturbation.delta == frac("1/4")
    assert [w.x_plus.atom_values[f"a{i}"] for i in range(4)] == [
        5,
        frac("17/4"),
        frac("11/4"),
        2,
    ]
    assert [w.x_minus.atom_values[f"a{i}"] for i in range(4)] == [
        5,
        frac("15/4"),
        frac("13/4"),
        2,
    ]
    # partial sums of x_plus stay below those of y: 5, 37/4, 12, 14 vs 8, 12, 14, 14
    sums = []
    acc = Fraction(0)
    for v in sorted((w.x_plus.atom_values[f"a{i}"] for i in range(4)), reverse=True):
        acc += v
        sums.append(acc)
    assert sums == [5, frac("37/4"), 12, 14]
    assert majorise_check(rearrange(w.x_plus), rearrange(y)).holds
    assert majorise_check(rearrange(w.x_minus), rearrange(y)).holds


def test_build_witness_two_values():
    x, y = mkatomic([3, 1]), mkatomic([4, 0])
    w = build_witness(x, y)
    assert w.perturbation.case_tag == TWO_VALUES
    assert verify_witness(x, y, w)


def test_build_witness_criterion_satisfied():
    with pytest.raises(CriterionSatisfied):
        build_witness(mkatomic([1, 3]), mkatomic([3, 1]))


def test_verify_witness_rejects_tampering():
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    w = build_witness(x, y)
    bumped = SimpleFunction(
        x.space, {"a0": w.x_plus.atom_values["a0"] + 1, "a1": w.x_plus.atom_values["a1"]}
    )
    assert not verify_witness(x, y, WitnessPair(bumped, w.x_minus, w.perturbation))

    big = w.perturbation.delta * 4  # delta* is 1, so 2 breaks majorisation
    overshoot = WitnessPair(
        add_functions(x, scale_function(w.perturbation.u, big)),
        add_functions(x, scale_function(w.perturbation.u, -big)),
        type(w.perturbation)(w.perturbation.u, big, w.perturbation.case_tag),
    )
    assert not verify_witness(x, y, overshoot)


def test_verify_witness_rejects_a_change_outside_the_region():
    """x+- = x +- 3/2 (1_b - 1_c) stay in the orbit and pass every pointwise
    check, but x+ takes 7/2 above x's top level 3: the scale changes on
    [0, 1/4), outside the region [1/4, 3/4) of the level u touches."""
    x, y = mkatomic([3, 2, 2, 1]), mkatomic([6, 2, 2, -2])
    u = mkatomic([0, 1, -1, 0])
    delta = frac("3/2")
    plus = add_functions(x, scale_function(u, delta))
    minus = add_functions(x, scale_function(u, -delta))
    assert majorise_check(rearrange(plus), rearrange(y)).holds
    assert majorise_check(rearrange(minus), rearrange(y)).holds
    assert not verify_witness(x, y, WitnessPair(plus, minus, Perturbation(u, delta, SPLIT_LEVEL)))


def test_verify_witness_rejects_a_direction_on_three_levels():
    """u = 1_a + 1_b - 2 1_c integrates to zero, and x +- u/100 stay in
    the orbit and change the scale only inside the region u touches; but
    u moves three levels of x, and a witness direction moves one or two.

    Two other gates in verify_witness are equivalent mutants, which no
    test can kill:
    - dropping the distinctness test: x+ = x- only when u is 0, which
      touches no level, so the level count rejects it;
    - dropping the zero-integral test: x+ and x- both majorised by y have
      equal integrals, which forces the integral of u to be 0."""
    x, y = mkatomic([3, 2, 1, 0]), mkatomic([6, 0, 0, 0])
    u = mkatomic([1, 1, -2, 0])
    delta = frac("1/100")
    plus = add_functions(x, scale_function(u, delta))
    minus = add_functions(x, scale_function(u, -delta))
    assert not verify_witness(x, y, WitnessPair(plus, minus, Perturbation(u, delta, TWO_VALUES)))


def test_witness_functions_on_another_space_are_refused():
    """u, x+ and x- must live on x's space: the same atom ids with other
    weights are another space, and both the bound and the check refuse it."""
    x, y = mkatomic([2, 2]), mkatomic([3, 1])
    w = build_witness(x, y)
    moved = lambda f: mkatomic([f.atom_values["a0"], f.atom_values["a1"]], ["1/4", "3/4"])
    u, delta, tag = w.perturbation.u, w.perturbation.delta, w.perturbation.case_tag
    calls = [
        lambda: admissible_delta(x, y, moved(u)),
        lambda: verify_witness(x, y, WitnessPair(w.x_plus, w.x_minus,
                                                 Perturbation(moved(u), delta, tag))),
        lambda: verify_witness(x, y, WitnessPair(moved(w.x_plus), moved(w.x_minus),
                                                 w.perturbation)),
    ]
    for call in calls:
        with pytest.raises(SchemaError, match="^functions live on different spaces$"):
            call()


def test_split_level_on_single_diffuse_piece():
    y = mkdiffuse([(3, "1/2"), (1, "1/2")])
    x = mkdiffuse([(2, "1")])
    w = build_witness(x, y)
    assert w.perturbation.case_tag == SPLIT_LEVEL
    assert len(w.x_plus.diffuse_pieces) == 2
    assert verify_witness(x, y, w)


def test_split_level_prefers_first_atom_in_mixed_level():
    space = MeasureSpace((("e", frac("1/2")),), frac("1/2"))
    y = SimpleFunction(space, {"e": 3}, ((Fraction(1), frac("1/2")),))
    x = SimpleFunction(space, {"e": 2}, ((Fraction(2), frac("1/2")),))
    w = build_witness(x, y)
    assert w.perturbation.case_tag == SPLIT_LEVEL
    assert w.perturbation.u.atom_values["e"] == 1
    assert w.perturbation.u.diffuse_pieces[0][0] == -1
    assert verify_witness(x, y, w)


def test_tau_preservation_and_locality():
    rng = SplitMix64(31)
    y = mkatomic([6, 3, 1, 0], weights=[frac("1/8"), frac("3/8"), frac("1/4"), frac("1/4")])
    found = 0
    for _ in range(30):
        x = sample_orbit(y, rng.next_u64())
        verdict = check_extreme(x, y)
        if verdict.extreme:
            continue
        found += 1
        w = verdict.witness
        assert w.x_plus.integral() == x.integral() == y.integral()
        assert w.x_minus.integral() == x.integral()
        xs = rearrange(x)
        touched = {v for v, coeff, _ in carriers(x, w.perturbation.u) if coeff != 0}
        lo, hi = perturbed_region(xs, touched)
        for perturbed in (w.x_plus, w.x_minus):
            ps = rearrange(perturbed)
            assert steps_on_interval(ps, 0, lo) == steps_on_interval(xs, 0, lo)
            assert steps_on_interval(ps, hi, 1) == steps_on_interval(xs, hi, 1)
            assert steps_on_interval(ps, lo, hi) != steps_on_interval(xs, lo, hi)
    assert found > 0


def test_slack_components_split_at_interior_zero():
    y = mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4)
    x = mkatomic([3, 3, 0, 0], weights=[frac("1/4")] * 4)
    components = _slack_components(majorise_check(rearrange(x), rearrange(y)))
    assert components == [(0, frac("1/2")), (frac("1/2"), 1)]
    _, slacks = evaluate_conditions(x, y)
    assert [(iv.t1, iv.t2) for iv in check_extreme(x, y).intervals] == components
    assert slacks == (0, 0, 0)
    assert [_positive_run(slacks, k) for k in range(2)] == [(0, 1), (1, 2)]


def test_two_values_in_later_component():
    """The slack vanishes at 1/2, splitting the region; the violating
    single-atom level sits in the second component."""
    y = mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4)
    x = mkatomic([4, 2, frac("1/2"), frac("-1/2")], weights=[frac("1/4")] * 4)
    verdict = check_extreme(x, y)
    assert not verdict.extreme
    assert verdict.conditions[:2] == (1, 1)
    w = verdict.witness
    assert w.perturbation.case_tag == TWO_VALUES
    assert w.perturbation.delta == frac("1/4")
    assert [w.x_plus.atom_values[f"a{i}"] for i in range(4)] == [
        4,
        2,
        frac("3/4"),
        frac("-3/4"),
    ]
    assert verify_witness(x, y, w)


def test_serialize_witness_shape():
    w = build_witness(mkatomic([2, 2]), mkatomic([3, 1]))
    doc = serialize_witness(w)
    assert set(doc) == {"x_plus", "x_minus", "delta", "case"}
    assert doc["delta"] == "1/2"
    assert doc["case"] == "split_level"


def test_serialize_witness_prints_the_shared_space_once():
    """x+ and x- on one space share one space document; the witness reads
    as the two functions serialized on their own."""
    w = build_witness(mkatomic([4, 2, frac("1/2"), frac("-1/2")], weights=[frac("1/4")] * 4),
                      mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4))
    doc = serialize_witness(w)
    assert doc["x_plus"]["space"] is doc["x_minus"]["space"]
    assert doc["x_plus"] == serialize_function(w.x_plus)
    assert doc["x_minus"] == serialize_function(w.x_minus)
    respelled = WitnessPair(w.x_plus, parse_function(serialize_function(w.x_minus)), w.perturbation)
    assert json.dumps(serialize_witness(respelled)) == json.dumps(doc)


@pytest.mark.parametrize("x, y", [
    (mkatomic([2, 2]), mkatomic([3, 1])),
    (mkdiffuse([(2, "1")]), mkdiffuse([(3, "1/2"), (1, "1/2")])),
    (mkatomic([4, 2, frac("1/2"), frac("-1/2")], weights=[frac("1/4")] * 4),
     mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4)),
], ids=["split-atoms", "split-piece", "two-values"])
def test_witness_pair_is_x_moved_by_delta_u(x, y):
    """x+ and x-, built on integers, are the functions that Fraction
    arithmetic gives for x +- delta*u, down to their repr."""
    w = build_witness(x, y)
    u, delta = w.perturbation.u, w.perturbation.delta
    for moved, sign in ((w.x_plus, 1), (w.x_minus, -1)):
        expected = add_functions(x, scale_function(u, sign * delta))
        assert moved == expected and repr(moved) == repr(expected)


def test_admissible_delta_is_a_supremum():
    """At delta* = admissible_delta(x, y, u), for the directions check_extreme
    builds, x +- delta* u are still in the orbit and some constraint is
    exactly tight: two carriers of different levels of x meet, or a slack
    that was positive at delta = 0 reaches 0. A step that is merely safe
    (delta*/2, say) leaves every constraint slack."""
    from majorbit.selftest import _random_instance

    rng = SplitMix64(15)
    makers = [
        lambda: _random_instance(rng, rng.randint(2, 6), 0),
        lambda: _random_instance(rng, 0, rng.randint(2, 5)),
        lambda: _random_instance(rng, rng.randint(1, 3), rng.randint(1, 3)),
    ]
    seen = set()
    for i in range(240):
        y = makers[i % 3]()
        x = sample_orbit(y, rng.next_u64())
        verdict = check_extreme(x, y)
        if verdict.extreme:
            continue
        seen.add(i % 3)
        u = verdict.witness.perturbation.u
        delta = admissible_delta(x, y, u)
        ys, xs = rearrange(y), rearrange(x)
        cells = carriers(x, u)
        tight = False
        for sign in (1, -1):
            moved = add_functions(x, scale_function(u, sign * delta))
            report = majorise_check(rearrange(moved), ys)
            assert report.holds
            tight = tight or any(
                slack == 0 and cumulative(ys, t) > cumulative(xs, t)
                for t, slack in report.breakpoint_slacks
            )
            tight = tight or any(
                v != w and v + sign * delta * c == w + sign * delta * d
                for v, c, _ in cells for w, d, _ in cells
            )
        assert tight, (x, y, delta)
    assert seen == {0, 1, 2}
