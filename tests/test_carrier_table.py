"""The integer carrier table against the Fraction formulation it replaced.

``reference_core`` keeps the Fraction versions of the scale queries, the
criterion and the witness stages. On atomic, diffuse and mixed spaces,
with repeated values and with y on another space, both must agree on
verdicts, intervals, conditions, reports, delta* and serialized witnesses,
Fraction for Fraction, and the criterion's integer slacks must follow the
reference report's.
"""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_core as ref
from majorbit.errors import MajorbitError, NotInOrbit
from majorbit.extremality import (
    check_extreme,
    classify_level,
    constancy_intervals,
    evaluate_conditions,
)
from majorbit.measure import (
    MeasureSpace,
    SimpleFunction,
    add_functions,
    parse_function,
    scale_function,
)
from majorbit.orbit import oracle_extreme, partial_average, sample_orbit
from majorbit.prng import SplitMix64
from majorbit.scales import StepScale, cumulative, majorise_check, rearrange
from majorbit.witness import WitnessPair, admissible_delta, build_witness, verify_witness

from conftest import function_pairs, simple_functions, small_values

# half of the draws come from five integers, so levels repeat across carriers
values = st.one_of(small_values, st.integers(-2, 2).map(Fraction))
spaces = st.sampled_from([
    dict(max_atoms=5, max_pieces=0, min_atoms=1),  # atomic
    dict(max_atoms=0, max_pieces=5),  # diffuse
    dict(max_atoms=3, max_pieces=3, min_atoms=1),  # mixed
])


@st.composite
def functions(draw):
    return draw(simple_functions(values=values, **draw(spaces)))


def on_diffuse_space(f: SimpleFunction) -> SimpleFunction:
    """A function on [0, 1) without atoms, equimeasurable with f."""
    return SimpleFunction(MeasureSpace((), Fraction(1)), {}, rearrange(f).steps)


def seeded_function(rng: SplitMix64, kind: str) -> SimpleFunction:
    """A function on an atomic, atomless or mixed space with masses in parts
    of 1-9 and values in -2..3, so that levels tie. Each piece is cut in two
    at a fraction a/b, b one of 11, 13 and 97: no sum of parts reaches 97,
    so the pieces' denominators need not divide the space's."""
    n_atoms = 0 if kind == "atomless" else rng.randint(1, 4)
    n_pieces = 0 if kind == "atomic" else rng.randint(1, 4)
    parts = [rng.randint(1, 9) for _ in range(n_atoms + n_pieces)]
    masses = [Fraction(p, sum(parts)) for p in parts]
    values = [Fraction(rng.randint(-2, 3)) for _ in parts]
    space = MeasureSpace(tuple((f"a{i}", masses[i]) for i in range(n_atoms)), sum(masses[n_atoms:]))
    pieces = []
    for value, mass in zip(values[n_atoms:], masses[n_atoms:]):
        b = (11, 13, 97)[rng.randint(0, 2)]
        cut = Fraction(rng.randint(1, b - 1), b)
        pieces += [(value, mass * cut), (values[rng.randint(0, len(values) - 1)], mass * (1 - cut))]
    return SimpleFunction(space, {f"a{i}": values[i] for i in range(n_atoms)}, tuple(pieces))


space_kinds = st.sampled_from(["atomic", "atomless", "mixed"])


@settings(max_examples=300)
@given(space_kinds, space_kinds, st.integers(0, 2**64 - 1))
def test_table_profile_matches_the_profile_of_the_steps(x_kind, y_kind, seed):
    """rearrange hands StepScale the carrier table's integer profile, over
    x's mass denominator; StepScale(steps) folds the same Fraction steps
    over the lcm of their own denominators. Both give the same steps, ends
    and values, and the same walk against y's scale on another space."""
    rng = SplitMix64(seed)
    x, y = seeded_function(rng, x_kind), seeded_function(rng, y_kind)
    scale = rearrange(x)
    folded = StepScale(scale.steps)
    assert scale.steps == folded.steps == ref.rearrange(x).steps
    (den, vden, ints), (f_den, f_vden, f_ints) = scale._profile, folded._profile
    ends = ref.profile(scale)[0]
    assert [Fraction(end, den) for end in scale._ends] == ends
    assert [Fraction(end, f_den) for end in folded._ends] == ends
    assert [Fraction(v, vden) for v, _ in ints] == [Fraction(v, f_vden) for v, _ in f_ints]
    assert [Fraction(v, vden) for v, _ in ints] == [v for v, _ in scale.steps]
    other = rearrange(y)
    for a, b in ((scale, other), (other, scale), (folded, other)):
        assert majorise_check(a, b) == ref.majorise_check(a, b)


@st.composite
def orbit_pairs(draw):
    """(x, y) with x in the orbit of y; in a third of the draws x lives on
    another space than y."""
    y = draw(functions())
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.integers(0, 2)):
        return sample_orbit(y, seed), y
    return sample_orbit(on_diffuse_space(y), seed), y


def outcome(fn, *args):
    try:
        return fn(*args)
    except MajorbitError as exc:
        return type(exc)


def document(verdict) -> str:
    return json.dumps(verdict.serialize(include_witness=True))


@given(orbit_pairs())
def test_check_extreme_matches_the_fraction_reference(pair):
    x, y = pair
    verdict, expected = check_extreme(x, y), ref.check_extreme(x, y)
    assert verdict.intervals == expected.intervals
    assert verdict.conditions == expected.conditions
    assert document(verdict) == document(expected)
    if not verdict.extreme:
        u = verdict.witness.perturbation.u
        assert admissible_delta(x, y, u) == ref.admissible_delta(x, y, u)


def slack_pattern(slacks) -> tuple[list[bool], list[list[bool]]]:
    """Which slacks are positive, and which pairs of them are equal."""
    return [s > 0 for s in slacks], [[a == b for b in slacks] for a in slacks]


@given(functions(), functions())
def test_evaluation_and_report_match_on_any_pair(f, g):
    """Pairs on unrelated spaces, most of them outside the orbit. The
    level-end slacks are integers over a positive denominator of the walk's
    choosing, so they are held to the reference report's slacks at x's
    breakpoints by sign and equality."""
    got, expected = outcome(evaluate_conditions, f, g), outcome(ref.evaluate_conditions, f, g)
    if isinstance(expected, type):
        assert got is expected
    else:
        conditions, slacks = got
        assert (constancy_intervals(f), conditions) == expected[:2]
        at = {Fraction(0): Fraction(0), **dict(expected[2].breakpoint_slacks)}
        reference = [at[t] for t in (Fraction(0), *rearrange(f).breakpoints)]
        assert slack_pattern(slacks) == slack_pattern(reference)
    rf, rg = rearrange(f), rearrange(g)
    assert majorise_check(rf, rg) == ref.majorise_check(rf, rg)


def test_oracle_decides_membership_on_its_own():
    """The vertex oracle checks orbit membership in its own merge over y's supporting lines.
    On pairs on unrelated spaces, most of them outside the orbit, and on orbit pairs, it
    raises NotInOrbit exactly when the reference report fails, and otherwise answers as the
    criterion."""
    seen = set()

    @settings(max_examples=400)
    @given(st.one_of(st.tuples(functions(), functions()), orbit_pairs()))
    def agree(pair):
        x, y = pair
        verdict = outcome(oracle_extreme, x, y)
        if ref.majorise_check(rearrange(x), rearrange(y)).holds:
            assert verdict == check_extreme(x, y).extreme
        else:
            assert verdict is NotInOrbit
        seen.add(verdict)

    agree()
    assert seen == {True, False, NotInOrbit}


probes = st.lists(st.fractions(min_value=0, max_value=1, max_denominator=30), max_size=6)


@given(functions(), probes)
def test_scale_queries_match(f, points):
    scale = rearrange(f)
    assert scale.steps == ref.rearrange(f).steps
    assert constancy_intervals(f) == ref.constancy_intervals(f)
    for value, _ in scale.steps:
        assert classify_level(f, value) == ref.classify_level(f, value)
    ends = list(scale.breakpoints)
    assert ends == ref.profile(scale)[0]
    for t in sorted(set(points) | set(ends)):
        assert cumulative(scale, t) == ref.cumulative(scale, t)
        if t < 1:
            assert scale.value_at(t) == ref.value_at(scale, t)


@given(orbit_pairs(), st.sampled_from([Fraction(1, 2), 2, 4, Fraction(-1)]))
def test_verify_witness_matches_on_scaled_steps(pair, factor):
    """Witnesses whose step is rescaled: 1/2 and 2 may stay valid or break
    majorisation, 4 overshoots, -1 swaps x+ and x-."""
    x, y = pair
    verdict = check_extreme(x, y)
    if verdict.extreme:
        return
    w = verdict.witness
    assert verify_witness(x, y, w) and ref.verify_witness(x, y, w)
    delta = w.perturbation.delta * factor
    scaled = WitnessPair(
        add_functions(x, scale_function(w.perturbation.u, delta)),
        add_functions(x, scale_function(w.perturbation.u, -delta)),
        type(w.perturbation)(w.perturbation.u, delta, w.perturbation.case_tag),
    )
    assert verify_witness(x, y, scaled) == ref.verify_witness(x, y, scaled)
    swapped = WitnessPair(w.x_minus, w.x_plus, w.perturbation)
    assert verify_witness(x, y, swapped) == ref.verify_witness(x, y, swapped)


@given(orbit_pairs())
def test_build_witness_matches(pair):
    x, y = pair
    got, expected = outcome(build_witness, x, y), outcome(ref.build_witness, x, y)
    if isinstance(got, WitnessPair):
        assert got == expected
    else:
        assert got is expected


@given(function_pairs(max_atoms=5, max_pieces=4, values=values), functions())
def test_admissible_delta_matches_on_any_direction(pair, y):
    """Directions that are not witnesses, and x outside the orbit of y."""
    x, u = pair
    assert outcome(admissible_delta, x, y, u) == outcome(ref.admissible_delta, x, y, u)


# unreduced literals ("2/4", "6/3", "-0") on atomic, atomless and mixed spaces;
# the averages below join carriers into levels of several members
RESPELLED = {
    "atomic": ({"atoms": [{"id": "a", "weight": "2/4"}, {"id": "b", "weight": "3/12"},
                          {"id": "c", "weight": "1/4"}], "diffuse_mass": "-0"},
               {"a": "6/3", "b": "-0", "c": "7/2"}, [], (["a", "c"], [])),
    "atomless": ({"atoms": [], "diffuse_mass": "3/3"}, {},
                 [("0/7", "2/8"), ("-0", "1/4"), ("12/4", "3/6")], ([], [0, 2])),
    "mixed": ({"atoms": [{"id": "b", "weight": "1/3"}, {"id": "a", "weight": "2/6"}],
               "diffuse_mass": "2/6"},
              {"a": "-0", "b": "-6/3"}, [("2/4", "1/6"), ("0/7", "2/12")], (["a", "b"], [1])),
}


@pytest.mark.parametrize("kind", sorted(RESPELLED))
def test_verdict_printed_from_integers_matches_the_fraction_reference(kind):
    """The verdict prints values, kinds and interval ends from x's carrier
    table; the reference prints the Fractions of its own intervals. Both
    documents agree, on a parsed space and on the same space built with the
    public constructor, for y itself (extreme) and for x averaging y over
    a few carriers, whose level ends are reduced over the common mass
    denominator."""
    space_doc, atom_doc, piece_doc, (atom_ids, piece_indices) = RESPELLED[kind]
    doc = {"space": space_doc, "atoms": atom_doc,
           "diffuse": [{"value": v, "mass": m} for v, m in piece_doc]}
    y = parse_function(json.dumps(doc))
    built = MeasureSpace(tuple((e["id"], Fraction(e["weight"])) for e in space_doc["atoms"]),
                         Fraction(space_doc["diffuse_mass"]))
    assert built == y.space and hash(built) == hash(y.space)
    for x in (y, partial_average(y, atom_ids, piece_indices)):
        x_built = SimpleFunction(built, x.atom_values, x.diffuse_pieces)
        expected = ref.check_extreme(x, y)
        for a in (x, x_built):
            verdict = check_extreme(a, y)
            assert verdict.intervals == expected.intervals == ref.constancy_intervals(a)
            assert document(verdict) == document(expected)
    assert not check_extreme(x, y).extreme and any(len(lv[1]) > 1 for lv in x._table)
