"""The frozen records and the one-command parser behave as the dataclasses and
the full parser they replace: the same repr, equality, hash, immutability,
construction, pickling, parsed arguments and help text."""

import contextlib
import io
import json
import pickle
from fractions import Fraction as F
from functools import cached_property

import numpy as np
import pytest

from majorbit.cli import _COMMANDS, build_parser
from majorbit.errors import InternalError, SchemaError
from majorbit.extremality import (ConstancyInterval, ExtremalityVerdict, LevelKind, check_extreme,
                                  constancy_intervals)
from majorbit.hermitian import (BirkhoffDecomposition, HermitianOperator, SuiteReport, eig_scale,
                                matrix_majorise)
from majorbit.measure import MeasureSpace, Refinement, SimpleFunction, _Record
from majorbit.scales import (IncreasingScale, MajorisationReport, StepScale, majorise_check,
                             rearrange)
from majorbit.selftest import CriterionResult
from majorbit.witness import Perturbation, WitnessPair

SPACE = MeasureSpace((("a", F(1, 4)), ("b", F(1, 4))), F(1, 2))
OTHER_SPACE = MeasureSpace((("a", F(1, 8)), ("b", F(3, 8))), F(1, 2))
F1 = SimpleFunction(SPACE, {"a": F(1), "b": F(0)}, ((F(2), F(1, 2)),))
F2 = SimpleFunction(SPACE, {"a": F(0), "b": F(1)}, ((F(2), F(1, 2)),))
KIND = LevelKind("single_atom", ("a",))
INTERVAL = ConstancyInterval(F(0), F(1, 2), F(1), KIND)
PERTURBATION = Perturbation(F1, F(1, 2), "two_values")
# reprs as the dataclasses printed them
SPACE_REPR = ("MeasureSpace(atoms=(('a', Fraction(1, 4)), ('b', Fraction(1, 4))), "
              "diffuse_mass=Fraction(1, 2))")
F1_REPR = (f"SimpleFunction(space={SPACE_REPR}, atom_values={{'a': Fraction(1, 1), "
           "'b': Fraction(0, 1)}, diffuse_pieces=((Fraction(2, 1), Fraction(1, 2)),))")
F2_REPR = F1_REPR.replace("'a': Fraction(1, 1), 'b': Fraction(0, 1)",
                          "'a': Fraction(0, 1), 'b': Fraction(1, 1)")
PERTURBATION_REPR = f"Perturbation(u={F1_REPR}, delta=Fraction(1, 2), case_tag='two_values')"

# class: (every field by keyword in field order, overrides that each make an unequal record,
# whether the record hashes, and its repr)
CASES = {
    MeasureSpace: (
        dict(atoms=(("a", F(1, 4)), ("b", F(1, 4))), diffuse_mass=F(1, 2)),
        [dict(atoms=(("a", F(1, 4)), ("c", F(1, 4)))),
         dict(atoms=(("a", F(1, 4)), ("b", F(1, 2))), diffuse_mass=F(1, 4))],
        True,
        SPACE_REPR,
    ),
    SimpleFunction: (
        dict(space=SPACE, atom_values={"a": F(1), "b": F(0)}, diffuse_pieces=((F(2), F(1, 2)),)),
        [dict(space=OTHER_SPACE), dict(atom_values={"a": F(1), "b": F(1)}),
         dict(diffuse_pieces=((F(3), F(1, 2)),))],
        False,
        F1_REPR,
    ),
    Refinement: (
        dict(source=F1, splits={0: (F(1, 4), F(1, 4))}),
        [dict(source=F2), dict(splits={0: (F(1, 8), F(3, 8))})],
        False,
        f"Refinement(source={F1_REPR}, splits={{0: (Fraction(1, 4), Fraction(1, 4))}})",
    ),
    StepScale: (
        dict(steps=((F(1), F(1, 2)), (F(0), F(1, 2)))),
        [dict(steps=((F(1), F(1, 4)), (F(0), F(3, 4))))],
        True,
        "StepScale(steps=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(1, 2))))",
    ),
    IncreasingScale: (
        dict(steps=((F(0), F(1, 2)), (F(1), F(1, 2)))),
        [dict(steps=((F(0), F(1, 4)), (F(1), F(3, 4))))],
        True,
        "IncreasingScale(steps=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 1), "
        "Fraction(1, 2))))",
    ),
    MajorisationReport: (
        dict(holds=True, breakpoint_slacks=((F(1, 2), F(1, 4)), (F(1), F(0))), total_gap=F(0)),
        [dict(holds=False), dict(breakpoint_slacks=((F(1), F(0)),)), dict(total_gap=F(1))],
        True,
        "MajorisationReport(holds=True, breakpoint_slacks=((Fraction(1, 2), Fraction(1, 4)), "
        "(Fraction(1, 1), Fraction(0, 1))), total_gap=Fraction(0, 1))",
    ),
    LevelKind: (
        dict(tag="single_atom", atom_ids=("a",)),
        [dict(tag="diffuse"), dict(atom_ids=("b",))],
        True,
        "LevelKind(tag='single_atom', atom_ids=('a',))",
    ),
    ConstancyInterval: (
        dict(t1=F(0), t2=F(1, 2), value=F(1), kind=KIND),
        [dict(t1=F(1, 4)), dict(t2=F(1)), dict(value=F(2)), dict(kind=LevelKind("diffuse"))],
        True,
        "ConstancyInterval(t1=Fraction(0, 1), t2=Fraction(1, 2), value=Fraction(1, 1), "
        "kind=LevelKind(tag='single_atom', atom_ids=('a',)))",
    ),
    ExtremalityVerdict: (
        dict(extreme=True, intervals=(INTERVAL,), conditions=(1,), witness=None),
        [dict(extreme=False), dict(intervals=()), dict(conditions=(2,)), dict(witness="w")],
        True,
        "ExtremalityVerdict(extreme=True, intervals=(ConstancyInterval(t1=Fraction(0, 1), "
        "t2=Fraction(1, 2), value=Fraction(1, 1), kind=LevelKind(tag='single_atom', "
        "atom_ids=('a',))),), conditions=(1,), witness=None)",
    ),
    Perturbation: (
        dict(u=F1, delta=F(1, 2), case_tag="two_values"),
        [dict(u=F2), dict(delta=F(1, 4)), dict(case_tag="three_values")],
        False,
        PERTURBATION_REPR,
    ),
    WitnessPair: (
        dict(x_plus=F1, x_minus=F2, perturbation=PERTURBATION),
        [dict(x_plus=F2), dict(x_minus=F1), dict(perturbation=Perturbation(F2, F(1), "x"))],
        False,
        f"WitnessPair(x_plus={F1_REPR}, x_minus={F2_REPR}, perturbation={PERTURBATION_REPR})",
    ),
    BirkhoffDecomposition: (
        dict(terms=((0.5, (0, 1)), (0.5, (1, 0)))),
        [dict(terms=((1.0, (0, 1)),))],
        True,
        "BirkhoffDecomposition(terms=((0.5, (0, 1)), (0.5, (1, 0))))",
    ),
    SuiteReport: (
        dict(trials={"pairing": 2}, violations={"pairing": 0}),
        [dict(trials={"pairing": 3}), dict(violations={"pairing": 1})],
        False,
        "SuiteReport(trials={'pairing': 2}, violations={'pairing': 0})",
    ),
    # a mutable dataclass before, and so unhashable; a frozen record now
    CriterionResult: (
        dict(index=1, name="c", trials=3, failures=0, seconds=0.5, note="n"),
        [dict(index=2), dict(name="d"), dict(trials=4), dict(failures=1), dict(seconds=0.25),
         dict(note="")],
        True,
        "CriterionResult(index=1, name='c', trials=3, failures=0, seconds=0.5, note='n')",
    ),
}


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def case(request):
    return request.param, *CASES[request.param]


def test_repr_as_the_dataclass_printed_it(case):
    cls, fields, _, _, text = case
    assert repr(cls(**fields)) == text


def test_equality_reads_every_public_field(case):
    cls, fields, overrides, _, _ = case
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    for override in overrides:
        other = cls(**{**fields, **override})
        assert record != other and not record == other, override
    assert record != object() and record != tuple(fields.values())


def test_hash_follows_equality_or_refuses(case):
    cls, fields, _, hashable, _ = case
    if hashable:
        assert hash(cls(**fields)) == hash(cls(**fields))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(**fields))


def test_fields_are_frozen(case):
    cls, fields, _, _, _ = case
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_construction_by_keyword_position_and_default(case):
    cls, fields, _, _, _ = case
    assert cls(*fields.values()) == cls(**fields)
    first, *rest = fields
    assert cls(fields[first], **{name: fields[name] for name in rest}) == cls(**fields)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):  # more than every parameter
        cls(*fields.values(), *[None] * 4)
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)


def test_defaults_fill_trailing_fields():
    assert LevelKind("diffuse").atom_ids == ()
    assert CriterionResult(1, "c", 3, 0, 0.5).note == ""
    assert SimpleFunction(MeasureSpace((("a", F(1)),), F(0)), {"a": F(2)}).diffuse_pieces == ()
    assert ExtremalityVerdict(True, (), ()).witness is None


def test_pickle_round_trip(case):
    cls, fields, _, _, _ = case
    record = cls(**fields)
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and loaded == record and repr(loaded) == repr(record)


def _hash_or_refusal(record):
    try:
        return hash(record)
    except TypeError as error:
        return str(error)


def test_derived_records_compare_by_their_fields():
    """Every record the library builds with ``_of`` from integers (a function's rearrangement,
    a spectral scale, a majorisation report of exact and of matrix scales, an extreme and a
    non-extreme verdict) prints, before a field is read, what the record that its public
    constructor builds from the same Fraction fields prints, and equals it with the same hash,
    or the same refusal to hash, and the same repr."""
    averaged = SimpleFunction(SPACE, {"a": F(1, 2), "b": F(1, 2)}, ((F(2), F(1, 2)),))
    pairs = [
        (rearrange(F1), StepScale(((F(2), F(1, 2)), (F(1), F(1, 4)), (F(0), F(1, 4))))),
        (eig_scale(HermitianOperator(np.diag([3.0, 1.0, 1.0, -1.0]))),
         StepScale(((F(3), F(1, 4)), (F(1), F(1, 2)), (F(-1), F(1, 4))))),
        (majorise_check(rearrange(F1), rearrange(F2)),
         MajorisationReport(True, ((F(1, 2), F(0)), (F(3, 4), F(0)), (F(1), F(0))), F(0))),
        (matrix_majorise(HermitianOperator(np.diag([2.0, 2.0, 0.0, 0.0])),
                         HermitianOperator(np.diag([3.0, 1.0, 1.0, -1.0]))),
         MajorisationReport(True, ((F(1, 4), F(1, 4)), (F(1, 2), F(0)), (F(3, 4), F(1, 4)),
                                   (F(1), F(0))), F(0))),
    ]
    f1 = SimpleFunction(SPACE, F1.atom_values, F1.diffuse_pieces)  # its scale not yet read
    for x, y in [(f1, f1), (averaged, f1)]:
        verdict = check_extreme(x, y)
        public = ExtremalityVerdict(verdict.extreme, constancy_intervals(x), verdict.conditions,
                                    verdict.witness)
        pairs.append((verdict, public))
    assert [verdict.extreme for verdict, _ in pairs[-2:]] == [True, False]
    for derived, public in pairs:
        derived_fields = [name for name, attr in vars(type(derived)).items()
                          if isinstance(attr, cached_property)]
        assert derived_fields and not any(name in vars(derived) for name in derived_fields)
        assert json.dumps(derived.serialize()) == json.dumps(public.serialize())
        assert derived == public and public == derived
        assert _hash_or_refusal(derived) == _hash_or_refusal(public)
        assert repr(derived) == repr(public)


def test_no_record_field_is_private():
    assert set(_Record.__subclasses__()) == set(CASES)
    for cls in CASES:
        assert cls._fields and not [name for name in cls._fields if name.startswith("_")], cls


@pytest.mark.parametrize(
    "cls, steps, message",
    [
        (IncreasingScale, (), "step lengths sum to 0, expected 1"),
        (IncreasingScale, ((F(0), F(1)), (F(1), F(0))), "step lengths must be > 0"),
        (IncreasingScale, ((F(1), F(1, 2)), (F(1), F(1, 2))),
         "step values must be strictly increasing"),
        (IncreasingScale, ((F(0), F(1, 4)), (F(1), F(1, 4))), "step lengths sum to 1/2, expected 1"),
        (StepScale, (), "a scale is never empty"),
        (StepScale, ((F(1), F(1)), (F(0), F(0))), "step lengths must be > 0"),
        (StepScale, ((F(1), F(1, 2)), (F(1), F(1, 2))), "step values must be strictly decreasing"),
        (StepScale, ((F(1), F(1, 4)), (F(0), F(1, 4))), "step lengths sum to 1/2, expected 1"),
    ],
    ids=["empty", "non-positive-length", "not-increasing", "total-not-one", "decreasing-empty",
         "decreasing-non-positive-length", "not-decreasing", "decreasing-total-not-one"],
)
def test_increasing_scale_refuses(cls, steps, message):
    """Both scale classes refuse malformed steps, each with InternalError and its message; the
    first four ids are IncreasingScale's, the last four StepScale's."""
    with pytest.raises(InternalError) as error:
        cls(steps)
    assert str(error.value) == message


# one representative argv per subcommand, after its name
ARGV = {
    "rearrange": ["-f", "a.json", "--normalize"],
    "majorise": ["-x", "a.json", "-y", "b.json"],
    "submajorise": ["-x", "a.json", "-y", "b.json", "--json-indent", "2"],
    "extreme": ["-x", "a.json", "-y", "b.json", "--witness"],
    "witness": ["-x", "a.json", "-y", "b.json"],
    "oracle": ["-y", "b.json", "-x", "a.json"],
    "enumerate": ["-y", "b.json"],
    "sample": ["-y", "b.json", "--seed", "7"],
    "matrix-eig": ["-f", "m.json", "--snap", "5"],
    "matrix-majorise": ["-x", "a.json", "-y", "b.json", "--tol", "1e-6"],
    "matrix-extreme": ["-x", "a.json", "-y", "b.json"],
    "birkhoff": ["-f", "d.json"],
    "ttransform": ["-x", "a.json", "-y", "b.json"],
    "suite": ["--seed", "3", "--trials", "5", "--dim", "4"],
    "selftest": ["--seed", "7"],
}


def _help(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_one_command_parser_matches_the_full_parser(name):
    argv = [name, *ARGV[name]]
    one, full = build_parser(argv), build_parser()
    assert one.parse_args(argv) == full.parse_args(argv)
    assert _help(one, [name, "--help"]) == _help(full, [name, "--help"])
    for bad in ([name, "--bogus"], [name, *ARGV[name], "extra"], [name, "--json-indent", "17"]):
        with pytest.raises(SchemaError) as one_error:
            one.parse_args(bad)
        with pytest.raises(SchemaError) as full_error:
            full.parse_args(bad)
        assert str(one_error.value) == str(full_error.value)


def test_an_unknown_command_builds_the_full_parser():
    assert _help(build_parser(["--help"]), ["--help"]) == _help(build_parser(), ["--help"])
    for argv in (["nope"], [], ["-x", "a.json"]):
        with pytest.raises(SchemaError) as error:
            build_parser(argv).parse_args(argv)
        with pytest.raises(SchemaError) as full_error:
            build_parser().parse_args(argv)
        assert str(error.value) == str(full_error.value)
