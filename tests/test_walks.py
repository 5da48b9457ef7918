"""The merge walks against the formulations they replaced.

Each ``reference_*`` function below evaluates the same quantity the old
way: bisecting ``cumulative`` at every point of the sorted union of
breakpoints. The walks must give the same Fractions in the same order.
"""

import hashlib
import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import majorbit.extremality as extremality
import majorbit.measure as measure
import majorbit.witness as witness
from majorbit.errors import DegenerateDirection, InternalError, MajorbitError
from majorbit.extremality import check_extreme
from majorbit.measure import ONE, ZERO, SimpleFunction, parse_function
from majorbit.orbit import sample_orbit
from majorbit.prng import SplitMix64
from majorbit.rationals import format_ratstr
from majorbit.scales import (
    MajorisationReport,
    StepScale,
    cumulative,
    majorise_check,
    merge_pairs,
    rearrange,
    singular_scale,
    submajorise_check,
)
from majorbit.selftest import _random_instance
from majorbit.witness import (
    _positive_run,
    admissible_delta,
    build_witness,
    serialize_witness,
)

from conftest import frac, function_pairs, mkatomic, simple_functions, small_values
from reference_core import carriers


def union_points(*scales):
    return sorted(set().union(*(s.breakpoints for s in scales)))


def reference_majorise(x, y):
    slacks = tuple((t, cumulative(y, t) - cumulative(x, t)) for t in union_points(x, y))
    total_gap = cumulative(y, ONE) - cumulative(x, ONE)
    return total_gap == 0 and all(s >= 0 for _, s in slacks), slacks, total_gap


def reference_submajorise(x, y):
    mx, my = singular_scale(x), singular_scale(y)
    return all(cumulative(mx, t) <= cumulative(my, t) for t in union_points(mx, my))


def reference_admissible_delta(x, y, u):
    cells = carriers(x, u)
    if all(coeff == 0 for _, coeff, _ in cells):
        raise DegenerateDirection("u vanishes almost everywhere")
    y_scale = rearrange(y)
    bounds = []
    for i, (vi, ui, _) in enumerate(cells):
        for vj, uj, _ in cells[i + 1 :]:
            if vi != vj and ui != uj:
                bounds.append(abs(vi - vj) / abs(ui - uj))
    for sign in (1, -1):
        blocks = {}
        for v, coeff, mass in cells:
            blocks[(v, sign * coeff)] = blocks.get((v, sign * coeff), ZERO) + mass
        ordered = sorted(blocks.items(), key=lambda kv: kv[0], reverse=True)
        points, acc = {ONE}, ZERO
        for _, mass in ordered:
            acc += mass
            points.add(acc)
        for t in sorted(points | set(y_scale.breakpoints)):
            base = drift = acc = ZERO
            for (v, signed_coeff), mass in ordered:
                take = min(mass, t - acc)
                if take <= 0:
                    break
                base += v * take
                drift += signed_coeff * take
                acc += take
            rhs = cumulative(y_scale, t)
            if drift > 0:
                bounds.append((rhs - base) / drift)
            elif base > rhs:
                bounds.append(ZERO)
    if not bounds:
        raise InternalError("direction admits no binding constraint")
    return max(min(bounds), ZERO)


def reference_slack_components(x_scale, y_scale):
    points = sorted({ZERO, ONE} | set(x_scale.breakpoints) | set(y_scale.breakpoints))
    slack = {t: cumulative(y_scale, t) - cumulative(x_scale, t) for t in points}
    components, open_start = [], None
    for left, right in zip(points, points[1:]):
        if slack[left] > 0 or slack[right] > 0:
            if open_start is None or slack[left] == 0:
                if open_start is not None:
                    components.append((open_start, left))
                open_start = left
        elif open_start is not None:
            components.append((open_start, left))
            open_start = None
    if open_start is not None:
        components.append((open_start, points[-1]))
    return components


def outcome(fn, *args):
    try:
        return fn(*args)
    except MajorbitError as exc:
        return type(exc)


@given(simple_functions(), simple_functions())
def test_majorise_walk_matches_bisection(f, g):
    x, y = rearrange(f), rearrange(g)
    report = majorise_check(x, y)
    assert (report.holds, report.breakpoint_slacks, report.total_gap) == reference_majorise(x, y)


@given(simple_functions(), simple_functions())
def test_submajorise_walk_matches_bisection(f, g):
    assert submajorise_check(f, g) == reference_submajorise(f, g)


@given(simple_functions(), st.integers(0, 2**64 - 1))
def test_slack_components_read_the_report(y, seed):
    """The run of levels found from any level inside a strictly positive
    stretch of the slack is that stretch, every stretch is found, and a
    level in no stretch has zero slack at both ends."""
    x = sample_orbit(y, seed)
    intervals = extremality.constancy_intervals(x)
    _, slacks = extremality.evaluate_conditions(x, y)
    components = reference_slack_components(rearrange(x), rearrange(y))
    runs = set()
    for k, iv in enumerate(intervals):
        home = [(a, b) for a, b in components if a <= iv.t1 and iv.t2 <= b]
        if home:
            lo, hi = _positive_run(slacks, k)
            assert home == [(intervals[lo].t1, intervals[hi - 1].t2)]
            runs.update(home)
        else:
            assert slacks[k] == slacks[k + 1] == 0
    assert sorted(runs) == components


# half of the draws come from five integers, so levels of x split across
# several carriers and carriers of one level share coefficients of u
split_level_values = st.one_of(small_values, st.integers(-2, 2).map(Fraction))


@given(
    function_pairs(max_atoms=8, max_pieces=6, values=split_level_values),
    simple_functions(max_atoms=8, max_pieces=6),
)
def test_admissible_delta_walk_matches_per_breakpoint_bound(pair, y):
    x, u = pair
    assert outcome(admissible_delta, x, y, u) == outcome(reference_admissible_delta, x, y, u)


@given(simple_functions(max_atoms=4, max_pieces=3), st.integers(0, 2**64 - 1))
def test_admissible_delta_on_witness_directions(y, seed):
    x = sample_orbit(y, seed)
    verdict = check_extreme(x, y)
    if verdict.extreme:
        return
    u = verdict.witness.perturbation.u
    delta_sup = admissible_delta(x, y, u)
    assert delta_sup == reference_admissible_delta(x, y, u)
    assert verdict.witness.perturbation.delta == delta_sup / 2


@pytest.mark.parametrize(
    "x, y",
    [
        (mkatomic([2, 2]), mkatomic([3, 1])),  # split level
        (
            mkatomic([4, 2, frac("1/2"), frac("-1/2")], weights=[frac("1/4")] * 4),
            mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4),
        ),  # single-atom level: two values
    ],
)
def test_check_extreme_evaluates_once(monkeypatch, x, y):
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    evaluate = extremality.evaluate_conditions
    monkeypatch.setattr(extremality, "evaluate_conditions", counting)
    monkeypatch.setattr(witness, "evaluate_conditions", counting)
    verdict = check_extreme(x, y)
    assert not verdict.extreme and len(calls) == 1
    assert serialize_witness(verdict.witness) == serialize_witness(build_witness(x, y))


@pytest.mark.parametrize(
    "make, extreme, scales",
    [
        (lambda: (mkatomic([2, 2]), mkatomic([3, 1])), False, 4),  # x, y, x+, x-
        (lambda: (mkatomic([3, 1]), mkatomic([3, 1])), True, 2),  # x, y
    ],
    ids=["not-extreme", "extreme"],
)
def test_check_extreme_builds_each_scale_once(monkeypatch, make, extreme, scales):
    built = []
    fold = StepScale._fold

    def counting(scale, *args):
        built.append(scale)
        fold(scale, *args)

    x, y = make()
    monkeypatch.setattr(StepScale, "_fold", counting)
    assert check_extreme(x, y).extreme is extreme
    assert len(built) == scales


def large_documents() -> tuple[str, str]:
    """x and y as JSON text on one space of 36 atoms and 12 diffuse pieces
    with masses on a 2^12 grid; x averages y over three groups of carriers,
    so it is not extreme."""
    masses = [Fraction(64 + i * 37 % 41, 4096) for i in range(47)]
    masses.append(1 - sum(masses))
    y_values = [Fraction(i * 7919 % 33 - 16) for i in range(48)]
    x_values = list(y_values)
    for group in ((0, 1, 2), (10, 11), (40, 41)):
        mean = sum(y_values[i] * masses[i] for i in group) / sum(masses[i] for i in group)
        for i in group:
            x_values[i] = mean

    def document(values):
        text = format_ratstr
        return json.dumps({
            "space": {"atoms": [{"id": f"a{i}", "weight": text(masses[i])} for i in range(36)],
                      "diffuse_mass": text(sum(masses[36:]))},
            "atoms": {f"a{i}": text(values[i]) for i in range(36)},
            "diffuse": [{"value": text(values[i]), "mass": text(masses[i])} for i in range(36, 48)],
        })

    return document(x_values), document(y_values)


def test_exact_request_builds_each_fraction_once(monkeypatch):
    """Parse, decide and serialize one 48-carrier non-extreme request.
    Masses and function values stay reduced integer pairs from the literal
    to the printed string, the verdict prints its intervals from x's carrier
    table, x+ and x- are built on integers, and a scale built from its
    integer profile derives its steps only when read. Three Fractions are
    built on Python 3.11.7: the direction's ratio, the step supremum delta*
    and the step delta = delta*/2. The space's masses, x's level values and
    lengths and the interval ends built 121 more, parsing every value to a
    Fraction 272, pairwise Fraction sums 529, and re-wrapping each value and
    mass and each printed literal 1276."""
    x_doc, y_doc = large_documents()
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    measure._space_of.cache_clear()  # x's space is parsed, y's is x's
    monkeypatch.setattr(Fraction, "__new__", counting)
    verdict = check_extreme(parse_function(x_doc), parse_function(y_doc))
    json.dumps(verdict.serialize(include_witness=True))
    monkeypatch.undo()
    count = len(built)
    assert not verdict.extreme
    assert count <= 3


def test_rearrange_prints_without_fractions(monkeypatch):
    """A scale prints from its reduced (value, length) pairs: parsing and
    printing rearrange of the 48-carrier document builds no Fraction (72
    when the print went through the derived steps), and the printed steps
    are those of the steps."""
    x_doc, _ = large_documents()
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    measure._space_of.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    scale = rearrange(parse_function(x_doc))
    printed = scale.serialize()
    monkeypatch.undo()
    assert built == []
    assert printed["steps"] == [{"value": format_ratstr(v), "length": format_ratstr(l)}
                                for v, l in scale.steps]


def test_check_extreme_builds_no_fraction_report(monkeypatch):
    """The criterion and the witness read the integer slack walk; only
    majorise_check, at the boundary, builds a MajorisationReport."""
    built = []
    fold = MajorisationReport._fold

    def counting(report, *args):
        built.append(report)
        fold(report, *args)

    monkeypatch.setattr(MajorisationReport, "_fold", counting)
    for x, y in [
        (mkatomic([2, 2]), mkatomic([3, 1])),  # split level
        (
            mkatomic([4, 2, frac("1/2"), frac("-1/2")], weights=[frac("1/4")] * 4),
            mkatomic([4, 2, 1, -1], weights=[frac("1/4")] * 4),
        ),  # single-atom level: two values
        (mkatomic([3, 1]), mkatomic([3, 1])),  # extreme
    ]:
        check_extreme(x, y)
    assert built == []
    majorise_check(rearrange(x), rearrange(y))
    assert len(built) == 1


def corpus_digest(instances: int = 300) -> str:
    """sha256 over the serialised check_extreme documents, witnesses
    included, of seeded atomic, diffuse and mixed orbit elements; each x is
    also decided with its adjacent equal-valued pieces merged."""
    rng = SplitMix64(8)
    makers = [
        lambda: _random_instance(rng, rng.randint(2, 6), 0),
        lambda: _random_instance(rng, 0, rng.randint(2, 5)),
        lambda: _random_instance(rng, rng.randint(1, 3), rng.randint(1, 3)),
    ]
    digest = hashlib.sha256()
    for i in range(instances):
        y = makers[i % 3]()
        x = sample_orbit(y, rng.next_u64())
        merged = SimpleFunction(x.space, x.atom_values, merge_pairs(x.diffuse_pieces))
        for candidate in (x, merged):
            digest.update(json.dumps(check_extreme(candidate, y).serialize()).encode() + b"\n")
    return digest.hexdigest()


def test_corpus_digest_is_pinned():
    """Captured before the merge walks replaced the bisections."""
    assert corpus_digest() == "2e29440ee7a1310536b3df035d76a10634c4379bf2dd9fb9b2c01cdf88b18006"
