import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from majorbit.errors import (
    DuplicateAtomError,
    MajorbitError,
    MassMismatchError,
    NormalizationError,
    SchemaError,
    SizeLimit,
    UnknownAtomError,
)
from majorbit.measure import (
    MeasureSpace,
    Refinement,
    SimpleFunction,
    add_functions,
    equal_ae,
    parse_function,
    parse_function_normalized,
    parse_space,
    refine_diffuse,
    scale_function,
    serialize_function,
    serialize_space,
)
from majorbit.rationals import format_ratstr, parse_ratstr
from majorbit.scales import majorise_check, rearrange

from conftest import mkatomic, mkdiffuse, simple_functions


def test_parse_ratstr_strict():
    assert parse_ratstr("3/4") == Fraction(3, 4)
    assert parse_ratstr("-7") == Fraction(-7)
    assert parse_ratstr("6/4") == Fraction(3, 2)
    for bad in ("0.5", "1/0", " 1", "1/2 ", "1e3", "--2", "1/-2", 5):
        with pytest.raises(SchemaError):
            parse_ratstr(bad)


def test_deeply_nested_json_text_is_a_schema_error():
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_function("[" * 5000 + "]" * 5000)


def test_format_ratstr_roundtrip():
    for text in ("0", "-3", "3/4", "-11/7"):
        assert format_ratstr(parse_ratstr(text)) == text


def test_unprintable_rational_is_a_size_limit():
    """Python refuses to print an int of more than 4300 digits; that is an
    input too large, not an internal failure."""
    for value in (Fraction(10**4400), Fraction(10**4400 + 1, 3), Fraction(1, 10**4400)):
        with pytest.raises(SizeLimit):
            format_ratstr(value)
    ones = "1" * 3000
    with pytest.raises(NormalizationError, match="too long to print"):
        parse_space({"atoms": [{"id": "a", "weight": f"1/{ones}"},
                               {"id": "b", "weight": f"1/{ones}3"}], "diffuse_mass": "0"})


def test_parse_space_examples():
    space = parse_space({"atoms": [{"id": "e", "weight": "1/2"}], "diffuse_mass": "1/2"})
    assert space.atoms == (("e", Fraction(1, 2)),)
    assert space.diffuse_mass == Fraction(1, 2)

    atomless = parse_space({"atoms": [], "diffuse_mass": "1"})
    assert atomless.purely_atomic is False
    assert atomless.diffuse_mass == 1

    with pytest.raises(NormalizationError):
        parse_space({"atoms": [{"id": "e", "weight": "1/2"}], "diffuse_mass": "1/4"})


HALVES = {"atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/2"}],
          "diffuse_mass": "0"}


def test_parse_space_reuses_a_literal_identical_space():
    """x and y of one request embed the same space text: the second parse
    returns the first's MeasureSpace, with its one mass fold."""
    first = parse_space(HALVES)
    assert parse_space(json.dumps(HALVES)) is first
    x = parse_function({"space": HALVES, "atoms": {"a": "1", "b": "0"}})
    y = parse_function(json.dumps({"space": HALVES, "atoms": {"a": "2", "b": "-1"}}))
    assert x.space is y.space is first


def test_parse_space_reads_a_kept_space_without_checking_it(monkeypatch):
    """A document whose atom entries and diffuse_mass equal the kept
    space's returns it without reading its entries in Python. The space
    keeps a copy of the entries it was parsed from, so a document changed
    in place after its parse is parsed again."""
    from majorbit import measure

    checked = []
    space_pairs = measure._space_pairs
    monkeypatch.setattr(measure, "_space_pairs", lambda *a: checked.append(a) or space_pairs(*a))
    doc = json.loads(json.dumps(HALVES))
    measure._space_of.cache_clear()
    first = parse_space(doc)
    assert parse_space(doc) is first and parse_space(json.dumps(HALVES)) is first
    assert len(checked) == 1
    doc["atoms"][0]["weight"], doc["atoms"][1]["weight"] = "1/4", "3/4"
    changed = parse_space(doc)
    assert len(checked) == 2 and changed.atoms == (("a", Fraction(1, 4)), ("b", Fraction(3, 4)))
    doc["atoms"][0]["id"] = 7
    with pytest.raises(SchemaError, match="atom ids and weights must be strings"):
        parse_space(doc)


@pytest.mark.parametrize("other", [
    {"atoms": [{"id": "a", "weight": "2/4"}, {"id": "b", "weight": "1/2"}], "diffuse_mass": "0"},
    {"atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/2"}], "diffuse_mass": "0/3"},
    {"atoms": [{"id": "b", "weight": "1/2"}, {"id": "a", "weight": "1/2"}], "diffuse_mass": "0"},
], ids=["respelled-weight", "respelled-diffuse-mass", "atoms-reordered"])
def test_parse_space_parses_a_respelled_space_on_its_own(other):
    first = parse_space(HALVES)
    space = parse_space(other)
    assert space is not first
    assert space.atoms == tuple((e["id"], parse_ratstr(e["weight"])) for e in other["atoms"])
    assert space.diffuse_mass == 0 and space == MeasureSpace(space.atoms, Fraction(0))


@pytest.mark.parametrize("bad, error", [
    ({"atoms": [{"id": "a", "weight": "1/2"}], "diffuse_mass": "1/4"}, NormalizationError),
    ({"atoms": [{"id": "a", "weight": "1/x"}], "diffuse_mass": "0"}, SchemaError),
    ({"atoms": [{"id": "a", "weight": ["1"]}], "diffuse_mass": "0"}, SchemaError),  # unhashable
    ({"atoms": [{"id": "a", "weight": "1"}], "diffuse_mass": {"0": 1}}, SchemaError),
    ({"atoms": [{"id": "a", "weight": "1"}, {"id": "a", "weight": "0"}], "diffuse_mass": "0"},
     DuplicateAtomError),
])
def test_a_space_that_raises_is_not_kept(bad, error):
    """The refused document raises again, the space kept before it is
    still returned, and the next new document is parsed in full."""
    first = parse_space(HALVES)
    for _ in range(2):
        with pytest.raises(error):
            parse_space(bad)
    assert parse_space(HALVES) is first
    thirds = parse_space({"atoms": [{"id": "a", "weight": "1/3"}], "diffuse_mass": "2/3"})
    assert thirds.atoms == (("a", Fraction(1, 3)),) and thirds.diffuse_mass == Fraction(2, 3)
    with pytest.raises(error):
        parse_space(bad)


def test_parse_space_duplicate_atom():
    with pytest.raises(DuplicateAtomError):
        parse_space(
            {
                "atoms": [
                    {"id": "e", "weight": "1/2"},
                    {"id": "e", "weight": "1/2"},
                ],
                "diffuse_mass": "0",
            }
        )


def test_parse_function_examples():
    space = parse_space({"atoms": [{"id": "e", "weight": "1/2"}], "diffuse_mass": "1/2"})
    f = parse_function(
        {
            "atoms": {"e": "3"},
            "diffuse": [
                {"value": "4", "mass": "1/4"},
                {"value": "2", "mass": "1/4"},
            ],
        },
        space,
    )
    assert f.atom_values["e"] == 3
    assert f.diffuse_pieces == ((Fraction(4), Fraction(1, 4)), (Fraction(2), Fraction(1, 4)))

    with pytest.raises(MassMismatchError):
        parse_function(
            {"atoms": {"e": "3"}, "diffuse": [{"value": "4", "mass": "1/3"}]}, space
        )

    with pytest.raises(UnknownAtomError):
        parse_function(
            {
                "atoms": {"z": "3"},
                "diffuse": [{"value": "0", "mass": "1/2"}],
            },
            space,
        )


class SubFraction(Fraction):
    """A Fraction subclass: converted like any number that is not a Fraction."""


@pytest.mark.parametrize("kind", [int, Fraction, np.int64, SubFraction],
                         ids=["int", "Fraction", "numpy-int", "Fraction-subclass"])
def test_constructors_accept_each_number_type(kind):
    """A space keeps its weights as given; a function holds every value and
    mass as a Fraction, equal to the number it was given."""
    one_atom = MeasureSpace((("a", kind(1)),), kind(0))
    assert one_atom == MeasureSpace((("a", Fraction(1)),), Fraction(0))
    assert hash(one_atom) == hash(MeasureSpace((("a", Fraction(1)),), Fraction(0)))
    assert type(one_atom.atoms[0][1]) is kind and type(one_atom.diffuse_mass) is kind
    half = MeasureSpace((("a", Fraction(1, 2)),), Fraction(1, 2))
    for f, expected in [
        (SimpleFunction(one_atom, {"a": kind(3)}), SimpleFunction(one_atom, {"a": Fraction(3)})),
        (SimpleFunction(MeasureSpace((), kind(1)), {}, ((kind(-2), kind(1)),)),
         SimpleFunction(MeasureSpace((), Fraction(1)), {}, ((Fraction(-2), Fraction(1)),))),
        (SimpleFunction(half, {"a": kind(5)}, ((kind(2), Fraction(1, 4)), (kind(-1), Fraction(1, 4)))),
         SimpleFunction(half, {"a": Fraction(5)},
                        ((Fraction(2), Fraction(1, 4)), (Fraction(-1), Fraction(1, 4))))),
    ]:
        assert f == expected
        assert f.atom_values == expected.atom_values and f.diffuse_pieces == expected.diffuse_pieces
        assert hash(f.diffuse_pieces) == hash(expected.diffuse_pieces)
        assert hash(tuple(f.atom_values.items())) == hash(tuple(expected.atom_values.items()))
        fields = [*f.atom_values.values(), *(q for piece in f.diffuse_pieces for q in piece)]
        assert all(type(q) is Fraction for q in fields)
        assert serialize_function(f) == serialize_function(expected)


@pytest.mark.parametrize("kind", [int, Fraction, np.int64, SubFraction],
                         ids=["int", "Fraction", "numpy-int", "Fraction-subclass"])
def test_constructors_reject_each_number_type(kind):
    cases = [
        (lambda: MeasureSpace((("a", kind(0)), ("b", kind(1))), kind(0)),
         SchemaError, "atom 'a' has non-positive weight"),
        (lambda: MeasureSpace((("a", kind(2)), ("b", kind(-1))), kind(0)),
         SchemaError, "atom 'b' has non-positive weight"),
        (lambda: MeasureSpace((("a", kind(2)),), kind(-1)),
         SchemaError, "diffuse_mass must be >= 0"),
        (lambda: SimpleFunction(MeasureSpace((), kind(1)), {}, ((kind(1), kind(0)), (kind(2), kind(1)))),
         SchemaError, "piece masses must be > 0"),
        (lambda: SimpleFunction(MeasureSpace((), kind(1)), {}, ((kind(1), kind(-1)), (kind(2), kind(2)))),
         SchemaError, "piece masses must be > 0"),
        (lambda: MeasureSpace((("a", kind(2)),), kind(0)),
         NormalizationError, "total mass is 2, expected 1"),
        (lambda: SimpleFunction(MeasureSpace((), kind(1)), {}, ((kind(1), kind(2)),)),
         MassMismatchError, "piece masses sum to 2, diffuse_mass is 1"),
    ]
    for build, error, message in cases:
        with pytest.raises(MajorbitError) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "bad",
    [0.5, "1/2", True, np.float64(0.5), None, "x",
     float("nan"), float("inf"), float("-inf")],
    ids=["float", "ratstr", "bool", "numpy-float", "None", "word", "nan", "inf", "-inf"],
)
def test_constructors_reject_non_numbers(bad):
    """Both constructors take a numbers.Rational that is not a bool and
    nothing else: a float or a ratstr is not silently converted, and what
    is refused is a SchemaError, not a conversion's own exception."""
    space = MeasureSpace((("a", Fraction(1, 2)),), Fraction(1, 2))
    for build in (lambda: MeasureSpace((("a", bad), ("b", Fraction(1, 2))), Fraction(0)),
                  lambda: MeasureSpace((("a", Fraction(1)),), bad),
                  lambda: SimpleFunction(space, {"a": bad}, ((Fraction(1), Fraction(1, 2)),)),
                  lambda: SimpleFunction(space, {"a": Fraction(1)}, ((bad, Fraction(1, 2)),)),
                  lambda: SimpleFunction(space, {"a": Fraction(1)}, ((Fraction(1), bad),))):
        with pytest.raises(SchemaError):
            build()


def test_refine_diffuse_examples():
    f = mkdiffuse([(4, "1/2"), (2, "1/2")])
    split = refine_diffuse(f, 2)
    assert split.diffuse_pieces[:2] == (
        (Fraction(4), Fraction(1, 4)),
        (Fraction(4), Fraction(1, 4)),
    )
    assert refine_diffuse(f, 1) is f
    assert len(refine_diffuse(f, 3).diffuse_pieces) == 6
    assert rearrange(refine_diffuse(f, 3)) == rearrange(f)


def test_refinement_validation():
    f = mkdiffuse([(4, "1/2"), (2, "1/2")])
    with pytest.raises(MassMismatchError):
        Refinement(f, {0: (Fraction(1, 4),)})
    with pytest.raises(SchemaError):
        Refinement(f, {5: (Fraction(1, 2),)})
    with pytest.raises(SchemaError):
        Refinement(f, {0: (Fraction(1, 2), Fraction(0))})


@given(simple_functions())
def test_roundtrip(f):
    assert parse_function(serialize_function(f)) == f
    assert parse_space(serialize_space(f.space)) == f.space


@given(simple_functions())
def test_kept_scale_leaves_equality_and_repr(f):
    fresh = parse_function(serialize_function(f))
    scale = rearrange(f)
    assert rearrange(f) is scale
    assert f == fresh and fresh == f and repr(f) == repr(fresh)


@given(simple_functions())
def test_refine_preserves_rearrangement(f):
    base = rearrange(f)
    for k in range(2, 9):
        assert rearrange(refine_diffuse(f, k)) == base


@given(simple_functions())
def test_total_mass_is_one(f):
    total = sum((w for _, w in f.space.atoms), f.space.diffuse_mass)
    assert total == 1


def test_function_arithmetic():
    f = mkatomic([1, 3])
    g = mkatomic([2, -1])
    assert dict(add_functions(f, g).atom_values) == {
        "a0": Fraction(3),
        "a1": Fraction(2),
    }
    assert scale_function(f, Fraction(1, 2)).atom_values["a1"] == Fraction(3, 2)
    assert f.map_values(lambda v: v + 4).atom_values["a0"] == 5
    assert f.integral() == 2


def test_equal_ae_across_refinements():
    f = mkdiffuse([(4, "1/2"), (2, "1/2")])
    g = refine_diffuse(f, 4)
    assert equal_ae(f, g)
    h = mkdiffuse([(4, "1/4"), (4, "1/4"), (2, "1/2")])
    assert equal_ae(f, h)
    assert not equal_ae(f, mkdiffuse([(2, "1/2"), (4, "1/2")]))


def test_piece_alignment_addition():
    f = mkdiffuse([(1, "1/2"), (3, "1/2")])
    g = mkdiffuse([(2, "1/4"), (0, "3/4")])
    total = add_functions(f, g)
    assert total.diffuse_pieces == (
        (Fraction(3), Fraction(1, 4)),
        (Fraction(1), Fraction(1, 4)),
        (Fraction(3), Fraction(1, 2)),
    )


def test_normalized_parsing():
    doc = {
        "space": {"atoms": [{"id": "e", "weight": "1"}], "diffuse_mass": "1"},
        "atoms": {"e": "3"},
        "diffuse": [{"value": "1", "mass": "1"}],
    }
    with pytest.raises(NormalizationError):
        parse_function(doc)
    f = parse_function_normalized(doc)
    assert f.space.atoms[0][1] == Fraction(1, 2)
    assert f.diffuse_pieces == ((Fraction(1), Fraction(1, 2)),)


def normalized_by_fractions(doc: dict) -> SimpleFunction:
    """parse_function_normalized's Fraction formulation: every mass divided
    by the Fraction sum of the space's masses."""
    space_doc = doc["space"]
    weights = [(e["id"], parse_ratstr(e["weight"])) for e in space_doc["atoms"]]
    diffuse = parse_ratstr(space_doc["diffuse_mass"])
    total = sum((w for _, w in weights), diffuse)
    space = MeasureSpace(tuple((aid, w / total) for aid, w in weights), diffuse / total)
    return SimpleFunction(space, {aid: parse_ratstr(v) for aid, v in doc["atoms"].items()},
                          tuple((parse_ratstr(p["value"]), parse_ratstr(p["mass"]) / total)
                                for p in doc["diffuse"]))


@pytest.mark.parametrize("space_doc, pieces", [
    ({"atoms": [{"id": "a", "weight": "3/3"}, {"id": "b", "weight": "2/4"}], "diffuse_mass": "-0"},
     []),
    ({"atoms": [], "diffuse_mass": "7/5"}, [("1", "2/5"), ("-2/4", "1")]),
    ({"atoms": [{"id": "b", "weight": "1/3"}, {"id": "a", "weight": "1/7"}], "diffuse_mass": "1/11"},
     [("6/3", "1/22"), ("-0", "1/22")]),
    ({"atoms": [{"id": "a", "weight": "1/4"}], "diffuse_mass": "3/4"}, [("5", "3/4")]),
], ids=["atomic", "atomless", "mixed", "normalized"])
def test_normalized_parsing_matches_the_fraction_division(space_doc, pieces):
    """The masses' numerators over their fold's D, over their sum T instead,
    are the space's fold: the same function and document as dividing each
    mass by the Fraction total."""
    doc = {"space": space_doc, "atoms": {e["id"]: "3/2" for e in space_doc["atoms"]},
           "diffuse": [{"value": v, "mass": m} for v, m in pieces]}
    f, expected = parse_function_normalized(json.dumps(doc)), normalized_by_fractions(doc)
    assert f == expected and f.space == expected.space
    assert json.dumps(serialize_function(f)) == json.dumps(serialize_function(expected))
    assert rearrange(f).steps == rearrange(expected).steps


EDGE_SPACES = {
    "atomic": ({"atoms": [{"id": "a", "weight": "2/4"}, {"id": "b", "weight": "1/4"},
                          {"id": "c", "weight": "1/4"}], "diffuse_mass": "0"},
               {"c": "007", "a": "2/4", "b": "-6/3"}, []),
    "atomless": ({"atoms": [], "diffuse_mass": "1"}, {},
                 [("0/7", "2/8"), ("-0", "1/4"), ("007", "3/6")]),
    "mixed": ({"atoms": [{"id": "b", "weight": "1/3"}, {"id": "a", "weight": "2/6"}],
               "diffuse_mass": "1/3"},
              {"a": "-0", "b": "-6/3"}, [("2/4", "1/6"), ("0/7", "2/12")]),
}


@pytest.mark.parametrize("kind", sorted(EDGE_SPACES))
def test_parsed_function_matches_the_one_built_from_fractions(kind):
    """A parsed function holds reduced integer pairs and derives its
    Fraction fields on first read; built from the same numbers as Fractions
    it is the same function: equal, equally unhashable, with the same repr,
    fields (in the document's atom order) and document, whatever the
    spelling of its literals."""
    space_doc, atom_doc, piece_doc = EDGE_SPACES[kind]
    doc = {"space": space_doc, "atoms": atom_doc,
           "diffuse": [{"value": v, "mass": m} for v, m in piece_doc]}
    parsed = parse_function(json.dumps(doc))
    built = SimpleFunction(parse_space(space_doc), {aid: Fraction(v) for aid, v in atom_doc.items()},
                           tuple((Fraction(v), Fraction(m)) for v, m in piece_doc))
    assert "atom_values" not in vars(parsed) and "diffuse_pieces" not in vars(parsed)
    assert parsed == built and built == parsed and repr(parsed) == repr(built)
    assert list(parsed.atom_values.items()) == list(built.atom_values.items())
    assert parsed.diffuse_pieces == built.diffuse_pieces
    fields = [*parsed.atom_values.values(), *(q for piece in parsed.diffuse_pieces for q in piece)]
    assert all(type(q) is Fraction for q in fields)
    for f in (parsed, built):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(f)
    assert json.dumps(serialize_function(parsed)) == json.dumps(serialize_function(built))
    assert rearrange(parsed) == rearrange(built)
    assert parse_function(serialize_function(parsed)) == parsed


def test_space_atom_ids_are_kept_outside_equality():
    space = MeasureSpace((("a", Fraction(1, 2)), ("b", Fraction(1, 2))), Fraction(0))
    assert space.atom_ids == ("a", "b") and space.atom_ids is space.atom_ids
    assert repr(space) == ("MeasureSpace(atoms=(('a', Fraction(1, 2)), ('b', Fraction(1, 2))), "
                           "diffuse_mass=Fraction(0, 1))")
    assert hash(space) == hash(((("a", Fraction(1, 2)), ("b", Fraction(1, 2))), Fraction(0)))


@pytest.mark.parametrize("bad", [0.1, True, "1/3"], ids=["float", "bool", "ratstr"])
def test_scale_function_follows_the_constructors_number_rule(bad):
    """A float, a bool or a ratstr is refused as a factor, as both
    constructors refuse it as a value, rather than converted by Fraction."""
    with pytest.raises(SchemaError, match="is not a rational number"):
        scale_function(mkatomic([1, 3]), bad)
    for factor in (3, Fraction(1, 3), np.int64(3)):
        assert scale_function(mkatomic([1, 3]), factor) == mkatomic([factor, 3 * factor])


def test_objects_built_on_integers_survive_pickling():
    """A parsed space and function, the scale that rearrange builds from the
    carrier table with its steps not yet derived, a verdict whose
    intervals were never read and a majorisation report whose slacks were
    never read pickle and load equal, and print the same."""
    import pickle

    from majorbit.extremality import check_extreme

    space_doc, atom_doc, piece_doc = EDGE_SPACES["mixed"]
    f = parse_function({"space": space_doc, "atoms": atom_doc,
                        "diffuse": [{"value": v, "mass": m} for v, m in piece_doc]})
    scale, verdict = rearrange(f), check_extreme(f, f)
    report = majorise_check(scale, scale)
    assert "steps" not in vars(scale) and "intervals" not in vars(verdict)
    assert "breakpoint_slacks" not in vars(report)
    for obj in (f.space, f, scale, verdict, report):
        assert pickle.loads(pickle.dumps(obj)) == obj
    for obj in (scale, verdict, report):
        assert pickle.loads(pickle.dumps(obj)).serialize() == obj.serialize()
