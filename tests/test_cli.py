import hashlib
import json
import sys
import time
import warnings
from fractions import Fraction

import pytest

from majorbit import cli
from majorbit.errors import InternalError, NotInOrbit
from majorbit.selftest import CriterionResult

CONST5 = {
    "space": {"atoms": [], "diffuse_mass": "1"},
    "atoms": {},
    "diffuse": [{"value": "5", "mass": "1"}],
}

FLAT = {
    "space": {
        "atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/2"}],
        "diffuse_mass": "0",
    },
    "atoms": {"a": "2", "b": "2"},
    "diffuse": [],
}

PEAK = {
    "space": {
        "atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/2"}],
        "diffuse_mass": "0",
    },
    "atoms": {"a": "3", "b": "1"},
    "diffuse": [],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_rearrange_constant(tmp_path, capsys):
    path = write(tmp_path, "f.json", CONST5)
    code, doc = run(capsys, ["rearrange", "-f", path])
    assert code == 0
    assert doc == {"steps": [{"value": "5", "length": "1"}]}


def test_extreme_with_witness(tmp_path, capsys):
    x = write(tmp_path, "x.json", FLAT)
    y = write(tmp_path, "y.json", PEAK)
    code, doc = run(capsys, ["extreme", "-x", x, "-y", y, "--witness"])
    assert code == 0
    assert doc["verdict"] == "not_extreme"
    assert doc["witness"]["delta"] == "1/2"
    assert doc["witness"]["case"] == "split_level"

    code, doc = run(capsys, ["extreme", "-x", x, "-y", y])
    assert "witness" not in doc


def test_malformed_ratstr_exits_2(tmp_path, capsys):
    bad = dict(PEAK, atoms={"a": "0.5", "b": "1"})
    x = write(tmp_path, "x.json", bad)
    y = write(tmp_path, "y.json", PEAK)
    code, doc = run(capsys, ["extreme", "-x", x, "-y", y])
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_missing_file_exits_2(tmp_path, capsys):
    y = write(tmp_path, "y.json", PEAK)
    code, doc = run(capsys, ["extreme", "-x", str(tmp_path / "nope.json"), "-y", y])
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_witness_on_extreme_point_exits_2(tmp_path, capsys):
    x = write(tmp_path, "x.json", PEAK)
    y = write(tmp_path, "y.json", PEAK)
    code, doc = run(capsys, ["witness", "-x", x, "-y", y])
    assert code == 2
    assert doc["error"] == "CriterionSatisfied"


def test_unknown_command_exits_2(capsys):
    code, doc = run(capsys, ["frobnicate"])
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_majorise_and_oracle_and_enumerate(tmp_path, capsys):
    x = write(tmp_path, "x.json", FLAT)
    y = write(tmp_path, "y.json", PEAK)
    code, doc = run(capsys, ["majorise", "-x", x, "-y", y])
    assert code == 0 and doc["holds"] is True
    code, doc = run(capsys, ["submajorise", "-x", x, "-y", y])
    assert code == 0 and doc["holds"] is True
    code, doc = run(capsys, ["oracle", "-x", x, "-y", y])
    assert code == 0 and doc["extreme"] is False
    code, doc = run(capsys, ["enumerate", "-y", y])
    assert code == 0
    assert [entry["atoms"] for entry in doc] == [
        {"a": "1", "b": "3"},
        {"a": "3", "b": "1"},
    ]


def test_oracle_on_mixed_spaces_and_many_atoms(tmp_path, capsys):
    """The oracle answers on diffuse mass and past 20 atoms; on criterion
    5's mixed-space example it agrees with extreme."""
    space = {"atoms": [{"id": "e", "weight": "1/2"}], "diffuse_mass": "1/2"}
    x = write(tmp_path, "x.json", {"space": space, "atoms": {"e": "3"},
                                   "diffuse": [{"value": "0", "mass": "1/2"}]})
    y = write(tmp_path, "y.json", {"space": space, "atoms": {"e": "0"},
                                   "diffuse": [{"value": "4", "mass": "1/4"},
                                               {"value": "2", "mass": "1/4"}]})
    code, oracle = run(capsys, ["oracle", "-x", x, "-y", y])
    assert code == 0
    code, verdict = run(capsys, ["extreme", "-x", x, "-y", y])
    assert code == 0 and oracle == {"extreme": verdict["verdict"] == "extreme"} == {"extreme": True}
    ids = [f"a{i}" for i in range(21)]
    atoms = {"space": {"atoms": [{"id": i, "weight": "1/21"} for i in ids], "diffuse_mass": "0"},
             "atoms": {i: str(k % 3) for k, i in enumerate(ids)}, "diffuse": []}
    many = write(tmp_path, "many.json", atoms)
    code, doc = run(capsys, ["oracle", "-x", many, "-y", many])
    assert code == 0 and doc == {"extreme": True}


def test_sample_deterministic_stdout(tmp_path, capsys):
    y = write(tmp_path, "y.json", PEAK)
    code1 = cli.main(["sample", "-y", y, "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["sample", "-y", y, "--seed", "42"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_normalize_flag(tmp_path, capsys):
    doc = {
        "space": {
            "atoms": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "1"}],
            "diffuse_mass": "0",
        },
        "atoms": {"a": "3", "b": "1"},
        "diffuse": [],
    }
    path = write(tmp_path, "f.json", doc)
    code, out = run(capsys, ["rearrange", "-f", path])
    assert code == 2 and out["error"] == "NormalizationError"
    code, out = run(capsys, ["rearrange", "-f", path, "--normalize"])
    assert code == 0
    assert out["steps"] == [
        {"value": "3", "length": "1/2"},
        {"value": "1", "length": "1/2"},
    ]


def test_matrix_commands(tmp_path, capsys):
    m = write(tmp_path, "m.json", {"n": 2, "re": [[2.0, 1.0], [1.0, 2.0]]})
    code, doc = run(capsys, ["matrix-eig", "-f", m, "--snap", "1000000"])
    assert code == 0
    assert doc["steps"][0]["value"] == "3"

    x = write(tmp_path, "xd.json", {"n": 2, "re": [[2.0, 0.0], [0.0, 2.0]]})
    code, doc = run(capsys, ["matrix-majorise", "-x", x, "-y", m])
    assert code == 0 and doc["holds"] is True
    code, doc = run(capsys, ["matrix-extreme", "-x", x, "-y", m])
    assert code == 0 and doc["extreme"] is False

    ds = write(tmp_path, "s.json", {"n": 2, "re": [[0.5, 0.5], [0.5, 0.5]]})
    code, doc = run(capsys, ["birkhoff", "-f", ds])
    assert code == 0
    assert doc["residual"] <= 1e-10
    assert len(doc["terms"]) == 2

    xv = write(tmp_path, "xv.json", ["2", "2"])
    yv = write(tmp_path, "yv.json", ["3", "1"])
    code, doc = run(capsys, ["ttransform", "-x", xv, "-y", yv])
    assert code == 0
    assert doc["matrix"] == [[0.5, 0.5], [0.5, 0.5]]


def test_suite_command(capsys):
    code, doc = run(capsys, ["suite", "--seed", "7", "--trials", "20", "--dim", "3"])
    assert code == 0
    assert doc["passed"] is True


def test_selftest_small_run(capsys):
    """Even --trials 1 runs at least one trial of every criterion."""
    for trials in ("40", "1"):
        code, doc = run(capsys, ["selftest", "--seed", "1", "--trials", trials])
        assert code == 0
        assert doc["passed"] is True
        assert all(c["trials"] >= 1 for c in doc["criteria"])


def test_selftest_detects_corruption(capsys, monkeypatch):
    """Negative control: a failing criterion turns the exit code nonzero."""
    from majorbit import selftest as st

    def broken(seed, trials=1):
        return CriterionResult(1, "broken", 1, 1, 0.0)

    monkeypatch.setattr(st, "CRITERIA", [broken])
    code, doc = run(capsys, ["selftest", "--trials", "1000"])
    assert code == 1
    assert doc["passed"] is False


@pytest.mark.parametrize("name, error, faulted", [
    ("enumerate_extreme", NotInOrbit, [2, 5]),
    ("birkhoff_decompose", InternalError, [7]),
])
def test_selftest_library_error_is_a_failed_trial(capsys, monkeypatch, name, error, faulted):
    """A library error inside a criterion ends it with a failed trial, and
    the other criteria still run: exit 1, not the error's own exit code."""
    from majorbit import selftest as st

    def fault(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(st, name, fault)
    code = cli.main(["selftest", "--seed", "7", "--trials", "1"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and doc["passed"] is False
    assert [c["index"] for c in doc["criteria"]] == list(range(1, 9))
    assert [c["index"] for c in doc["criteria"] if not c["passed"]] == faulted
    failed = [line.split()[1] for line in captured.err.splitlines() if ": FAIL [" in line]
    assert failed == [str(index) for index in faulted]


@pytest.mark.parametrize("trials, digest", [
    ("1", "89c367f0cf20b4a4d5be49328239f35bed350b5a2ab0f701c239e9406d1f961c"),
    ("40", "1627a510a86266b5c1b766abc5dafac768093b52322ab3f42499bfff6f1ca166"),
])
def test_selftest_stdout_is_pinned(capsys, trials, digest):
    """Each criterion's trials and failures at seed 7, pinned to what the
    hand-counted criteria printed: a change of instance order or of
    counting shows here even when every criterion still passes."""
    assert cli.main(["selftest", "--seed", "7", "--trials", trials]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def explode(f):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "rearrange", explode)
    path = write(tmp_path, "f.json", CONST5)
    code, out = run(capsys, ["rearrange", "-f", path])
    assert code == 3
    assert out["error"] == "InternalError"
    assert "boom" in out["detail"]


def test_json_indent(tmp_path, capsys):
    path = write(tmp_path, "f.json", CONST5)
    code = cli.main(["rearrange", "-f", path, "--json-indent", "2"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("{\n  ")


@pytest.mark.parametrize("indent", ["-1", "17", "99999999999999"])
def test_json_indent_out_of_range_exits_2(tmp_path, capsys, monkeypatch, indent):
    """Rejected while parsing the arguments, before json.dumps would build
    an indentation string of that length."""
    dumps = json.dumps

    def bounded(doc, indent=None):
        assert indent is None or 0 <= indent <= 16
        return dumps(doc, indent=indent)

    monkeypatch.setattr(cli.json, "dumps", bounded)
    path = write(tmp_path, "f.json", CONST5)
    code = cli.main(["rearrange", "-f", path, "--json-indent", indent])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1 and json.loads(out)["error"] == "SchemaError"


def test_non_finite_matrix_exits_2(tmp_path, capsys):
    """NaN passes a `> tol` check silently, and 1e308 entries overflow the
    default tolerance to inf; both are bad input."""
    for name, entries in (("nan", [[1.0, float("nan")], [float("nan"), 1.0]]),
                          ("huge", [[1e308, 1e308], [1e308, 1e308]])):
        m = write(tmp_path, f"{name}.json", {"n": 2, "re": entries})
        code = cli.main(["matrix-eig", "-f", m])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["error"] == "SchemaError"


def test_normalize_checks_the_space(tmp_path, capsys):
    doc = {
        "space": {"atoms": [{"id": "a"}], "diffuse_mass": "1"},
        "atoms": {"a": "1"},
        "diffuse": [{"value": "0", "mass": "1"}],
    }
    path = write(tmp_path, "f.json", doc)
    code, out = run(capsys, ["rearrange", "-f", path, "--normalize"])
    assert code == 2 and out["error"] == "SchemaError"


def test_zero_tol_is_rejected_not_replaced(tmp_path, capsys):
    ds = write(tmp_path, "s.json", {"n": 2, "re": [[0.5, 0.5], [0.5, 0.5]]})
    for argv in (["birkhoff", "-f", ds, "--tol", "0"],
                 ["suite", "--trials", "2", "--dim", "2", "--tol", "0"],
                 ["suite", "--trials", "2", "--dim", "2", "--tol", "-1e-8"]):
        code, out = run(capsys, argv)
        assert code == 2 and out["error"] == "SchemaError"


def test_negative_trials_and_empty_dim_exit_2(capsys):
    """No trials would be a vacuous pass, so --trials 0 is bad input too."""
    for argv in (["selftest", "--trials", "-5"],
                 ["selftest", "--trials", "0"],
                 ["suite", "--trials", "-3"],
                 ["suite", "--trials", "0"],
                 ["suite", "--trials", "2", "--dim", "0"]):
        code, out = run(capsys, argv)
        assert code == 2 and out["error"] == "SchemaError"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    """A seed outside the u64 range would alias one inside it."""
    y = write(tmp_path, "y.json", PEAK)
    for argv in (["sample", "-y", y], ["suite", "--trials", "1", "--dim", "2"], ["selftest", "--trials", "1"]):
        code, out = run(capsys, [*argv, "--seed", seed])
        assert code == 2 and out["error"] == "SchemaError"
        assert "--seed" in out["detail"] and seed in out["detail"]
    code, _ = run(capsys, ["sample", "-y", y, "--seed", str(2**64 - 1)])
    assert code == 0


def test_selftest_stdout_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["selftest", "--trials", "1"]) == 0
        captured = capsys.readouterr()
        outputs.append(captured.out)
        assert "s]" in captured.err  # wall time stays on stderr
    assert outputs[0] == outputs[1]
    assert all("seconds" not in c for c in json.loads(outputs[0])["criteria"])


ONE_ATOM = {"atoms": [{"id": "a", "weight": "1"}], "diffuse_mass": "0"}
OVER_RANGE = int("9" * 400)
# four pieces of mass 1/q, q = 10^1500 + 2i + 1, on an atomless space: their
# sum misses diffuse_mass 1 and has a denominator of about 6000 digits
UNPRINTABLE_PIECE_SUM = {
    "space": {"atoms": [], "diffuse_mass": "1"},
    "diffuse": [{"value": "1", "mass": f"1/{10**1500 + 2 * i + 1}"} for i in range(4)],
}


@pytest.mark.parametrize(
    "command, docs, error",
    [
        ("matrix-eig -f {0}", [{"re": [[1, 2], [3]]}], "SchemaError"),  # ragged rows
        ("birkhoff -f {0}", [{"re": [["a", 1], [1, 0]]}], "SchemaError"),  # string entries
        ("matrix-eig --tol 1 -f {0}", [{"re": [[1.5e308, 1.5e308], [1.5e308, 1.5e308]]}],
         "SchemaError"),
        ("ttransform -x {0} -y {1}", [[], []], "SchemaError"),
        ("matrix-eig --snap 0 -f {0}", [{"re": [[1.0]]}], "SchemaError"),
        ("rearrange -f {0}", [{"space": CONST5["space"], "diffuse": 5}], "SchemaError"),
        # > 4300 digits
        ("rearrange -f {0}", [{"space": ONE_ATOM, "atoms": {"a": "1" * 5000}}], "SchemaError"),
        # a document that is a JSON string of a huge integer
        ("rearrange -f {0}", ["9" * 5000], "SchemaError"),
        # 400 digits: under the int-string limit, outside the float range
        ("matrix-eig -f {0}", [{"re": [[OVER_RANGE]]}], "SchemaError"),
        ("matrix-majorise -x {0} -y {1}", [{"re": [[OVER_RANGE]]}, {"re": [[1.0]]}], "SchemaError"),
        ("matrix-extreme -x {0} -y {1}", [{"re": [[1.0]]}, {"re": [[1.0]], "im": [[OVER_RANGE]]}],
         "SchemaError"),
        ("birkhoff -f {0}", [{"re": [[OVER_RANGE]]}], "SchemaError"),
        ("ttransform -x {0} -y {1}", [[OVER_RANGE], [1]], "SchemaError"),
        ("ttransform -x {0} -y {1}", [["1"], [str(OVER_RANGE)]], "SchemaError"),
        # finite entries whose sums or spread overflow: once InternalError, exit 3
        ("ttransform -x {0} -y {1}", [[1.7e308, 1.7e308], [1.7e308, 1.6e308]], "SchemaError"),
        ("ttransform -x {0} -y {1}", [[1.7e308, 1.6e308], [1.7e308, 1.7e308]], "SchemaError"),
        ("ttransform -x {0} -y {1}", [[0.0, 0.0], [1e308, -1e308]], "SchemaError"),
        # piece masses that miss diffuse_mass and sum to a rational too long to print
        ("rearrange -f {0}", [UNPRINTABLE_PIECE_SUM], "MassMismatchError"),
        # one reader for both matrix documents: birkhoff once took all of these
        ("birkhoff -f {0}", [{"n": 3, "re": [[1, 0], [0, 1]]}], "SchemaError"),
        ("birkhoff -f {0}", [{"re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 1], [1, 0]]}],
         "SchemaError"),
        ("birkhoff -f {0}", [{"n": True, "re": [[1]]}], "SchemaError"),
        ("matrix-eig -f {0}", [{"n": True, "re": [[1]]}], "SchemaError"),
        ("birkhoff -f {0}", [{"re": [[True, False], [False, True]]}], "SchemaError"),
        ("matrix-extreme -x {0} -y {1}", [{"re": [[1.0]]}, {"re": [[1.0]], "im": [[False]]}],
         "SchemaError"),
        ("birkhoff -f {0}", [{"re": [["0.5", 0.5], [0.5, 0.5]]}], "SchemaError"),
        ("matrix-eig -f {0}", [{"re": [[" 1 "]]}], "SchemaError"),
        # vector strings follow the ratstr grammar, and a bool is not a number
        ("ttransform -x {0} -y {1}", [[True, 0, 0], [1, 0, 0]], "SchemaError"),
        ("ttransform -x {0} -y {1}", [["0.5", "0.5"], ["1", "0"]], "SchemaError"),
        ("ttransform -x {0} -y {1}", [[" 1e0 ", 0], [1, 0]], "SchemaError"),
    ],
    ids=["ragged-rows", "string-entries", "overflowing-spectrum", "empty-vectors", "zero-snap",
         "diffuse-not-a-list", "overlong-ratstr", "huge-integer-in-a-string-document",
         "over-range-eig", "over-range-majorise", "over-range-extreme", "over-range-birkhoff",
         "over-range-ttransform", "over-range-ratstr-ttransform", "overflowing-sums-ttransform",
         "overflowing-sums-ttransform-swapped", "overflowing-spread-ttransform",
         "unprintable-piece-sum", "n-mismatch-birkhoff", "nonzero-im-birkhoff",
         "bool-n-birkhoff", "bool-n-eig", "bool-entries-birkhoff", "bool-im-extreme",
         "decimal-string-entry-birkhoff", "spaced-string-entry-eig", "bool-vector-entry",
         "decimal-vector-string", "spaced-exponent-vector-string"],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, docs, error):
    paths = [write(tmp_path, f"d{i}.json", doc) for i, doc in enumerate(docs)]
    code = cli.main(command.format(*paths).split())
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1 and json.loads(out)["error"] == error


def test_matrix_and_vector_documents_that_stay_accepted(tmp_path, capsys):
    """A zero 'im' and a matching int 'n' leave birkhoff's terms as they
    are; ratstr vector entries, such as "1/2" and "-3", still answer."""
    plain = write(tmp_path, "s.json", {"re": [[0.5, 0.5], [0.5, 0.5]]})
    dressed = write(tmp_path, "t.json",
                    {"n": 2, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0.0], [-0.0, 0]]})
    assert run(capsys, ["birkhoff", "-f", dressed]) == run(capsys, ["birkhoff", "-f", plain])
    xv = write(tmp_path, "xv.json", ["1/2", "1/2", "-3"])
    yv = write(tmp_path, "yv.json", ["1", "0", "-3"])
    code, doc = run(capsys, ["ttransform", "-x", xv, "-y", yv])
    assert code == 0 and len(doc["matrix"]) == 3


def test_huge_json_integer_exits_2(tmp_path, capsys):
    """json.load raises a plain ValueError, not JSONDecodeError, for an
    integer literal past the int-string limit (json.dumps cannot write one,
    so the text is written by hand)."""
    matrix = tmp_path / "m.json"
    matrix.write_text('{"re": [[' + "1" * 5000 + "]]}")
    code = cli.main(["matrix-eig", "-f", str(matrix)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1 and json.loads(out)["error"] == "SchemaError"


@pytest.mark.parametrize("command", ["rearrange -f {0}", "extreme -x {0} -y {0}",
                                     "matrix-eig -f {0}"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    """Arrays nested past the JSON parser's recursion limit are a malformed
    document, not an internal error: 1000 levels exit 2, as 900 do."""
    for depth in (900, 1000):
        path = tmp_path / f"d{depth}.json"
        path.write_text("[" * depth + "]" * depth)
        code = cli.main(command.format(path).split())
        out = capsys.readouterr().out
        assert code == 2, out
        assert out.count("\n") == 1 and json.loads(out)["error"] == "SchemaError"


def test_unprintable_output_exits_2(tmp_path, capsys):
    """Rescaling three 3000-digit weights gives a merged length too long to
    print; a total mass too long to print still reports the bad total."""
    ones = "1" * 2999
    atoms = [{"id": a, "weight": f"1/{ones}{d}"} for a, d in (("a", 1), ("b", 3), ("c", 7))]
    doc = {"space": {"atoms": atoms, "diffuse_mass": "0"},
           "atoms": {"a": "1", "b": "1", "c": "2"}, "diffuse": []}
    path = write(tmp_path, "f.json", doc)
    code, out = run(capsys, ["rearrange", "-f", path, "--normalize"])
    assert code == 2 and out["error"] == "SizeLimit"
    doc["space"]["atoms"] = atoms[:2]
    doc["atoms"] = {"a": "1", "b": "2"}
    path = write(tmp_path, "g.json", doc)
    code, out = run(capsys, ["rearrange", "-f", path])
    assert code == 2 and out["error"] == "NormalizationError"


def diagonal(*values):
    n = len(values)
    return {"re": [[v if i == j else 0.0 for j in range(n)] for i, v in enumerate(values)]}


MAX_PAIR, MIN_PAIR = diagonal(1.7e308, 1.7e308), diagonal(-1.7e308, -1.7e308)


@pytest.mark.parametrize(
    "command, docs, code, answer",
    [
        # a cluster sum past the float range: once "cannot convert Infinity", exit 3
        ("matrix-eig -f {0}", [MAX_PAIR], 2, {"error": "SchemaError"}),
        ("matrix-majorise -x {0} -y {1}", [MIN_PAIR, MAX_PAIR], 2, {"error": "SchemaError"}),
        ("matrix-extreme -x {0} -y {1}", [MIN_PAIR, MAX_PAIR], 2, {"error": "SchemaError"}),
        # an eigenvalue gap past the float range is a cut, with no overflow warning
        ("matrix-eig -f {0}", [diagonal(1.5e308, -1.5e308)], 0, {}),
        # a total gap past the float range fails the relaxed test: once OverflowError, exit 3
        ("matrix-majorise -x {0} -y {1}", [diagonal(-1e308, -1.7e308), diagonal(1.7e308, 1e308)],
         0, {"holds": False}),
        ("matrix-extreme -x {0} -y {1}", [diagonal(-1e308, -1.7e308), diagonal(1.7e308, 1e308)],
         2, {"error": "NotInOrbit"}),
        # in the orbit, with a scale difference past the float range: not equal
        ("matrix-extreme -x {0} -y {1}",
         [diagonal(*[-1.6e308 / 3] * 3), diagonal(1.7e308, -1.7e308, -1.6e308)],
         0, {"extreme": False}),
    ],
    ids=["eig-cluster-sum", "majorise-cluster-sum", "extreme-cluster-sum", "eig-wide-gap",
         "majorise-total-gap", "extreme-total-gap", "extreme-value-difference"],
)
def test_spectra_at_the_float_range_never_exit_3(tmp_path, capsys, command, docs, code, answer):
    paths = [write(tmp_path, f"d{i}.json", doc) for i, doc in enumerate(docs)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, command.format(*paths).split())
    assert caught == []
    assert result[0] == code and answer.items() <= result[1].items()


def test_finite_huge_entry_has_its_spectrum(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"re": [[1e308, 0.5], [0.5, 2.0]]})
    code, out = run(capsys, ["matrix-eig", "-f", path])
    assert code == 0
    assert [float(Fraction(s["value"])) for s in out["steps"]] == [1e308, 2.0]


FUNCTION_READERS = {"rearrange", "majorise", "submajorise", "extreme", "witness", "oracle",
                    "enumerate", "sample"}
FLAG_READERS = {
    "--normalize": FUNCTION_READERS,
    "--seed": {"sample", "suite", "selftest"},
    "--trials": {"suite", "selftest"},
    "--tol": {"matrix-eig", "matrix-majorise", "matrix-extreme", "birkhoff", "suite"},
    "--witness": {"extreme"},
    "--snap": {"matrix-eig"},
    "--dim": {"suite"},
}
# arguments that parse for each subcommand; --trials 1 keeps suite and
# selftest quick should a flag be accepted
REQUIRED = {
    **{name: "-x x.json -y y.json" for name in (
        "majorise", "submajorise", "extreme", "witness", "oracle", "matrix-majorise",
        "matrix-extreme", "ttransform")},
    **{name: "-f f.json" for name in ("rearrange", "matrix-eig", "birkhoff")},
    **{name: "-y y.json" for name in ("enumerate", "sample")},
    "suite": "--trials 1",
    "selftest": "--trials 1",
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for flag, readers in FLAG_READERS.items()
     for command in REQUIRED if command not in readers],
)
def test_unread_flag_exits_2(capsys, command, flag):
    value = [] if flag in ("--normalize", "--witness") else ["1"]
    code = cli.main([command, *REQUIRED[command].split(), flag, *value])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "SchemaError" and f"unrecognized arguments: {flag}" in doc["detail"]


def hostile_denominators_doc() -> dict:
    """24 atom pairs, pair i weighing (q-1)/(48q) and (q+1)/(48q) for the
    4000-digit odd q = 10^3999 + 2i + 1, so each pair sums to 1/24 and the
    lcm of the weights' denominators has about 96 000 digits. Values fall
    pair by pair, so the rearrangement keeps each pair together."""
    atoms, values = [], {}
    for i in range(24):
        q = 10**3999 + 2 * i + 1
        for name, mass, value in (("a", Fraction(q - 1, 48 * q), 96 - 4 * i),
                                  ("b", Fraction(q + 1, 48 * q), 95 - 4 * i)):
            atoms.append({"id": f"{name}{i}", "weight": f"{mass.numerator}/{mass.denominator}"})
            values[f"{name}{i}"] = str(value)
    return {"space": {"atoms": atoms, "diffuse_mass": "0"}, "atoms": values, "diffuse": []}


@pytest.mark.parametrize("argv, digest", [
    (["extreme", "-x", "{0}", "-y", "{0}"],
     "f1c88d08dc23a646090c110d6c50bcf9f93a128e8ed7c09c965384aa9dabe438"),
    (["rearrange", "-f", "{0}"],
     "b77639691d0a2b442fc0a9d36f402ac19354207d151f8bacba77779a31114b35"),
], ids=["extreme", "rearrange"])
def test_hostile_common_denominator(tmp_path, capsys, argv, digest):
    """Every literal stays under the 4300-digit limit, but a common
    denominator of all masses has about 96 000 digits. The output is
    pinned to the one the Fraction implementation printed."""
    path = write(tmp_path, "f.json", hostile_denominators_doc())
    start = time.perf_counter()
    code = cli.main([arg.format(path) for arg in argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 5.0


def test_hostile_extreme_folds_the_weights_once(tmp_path, capsys, monkeypatch):
    """x and y read from one document share one parsed space, which brings
    its weights to their 96 000-digit common denominator once; the carrier
    tables, the scales and the walk read those numerators, and x+ and x-
    are built on them. Counted at _fold_pairs, the one fold of (numerator,
    denominator) pairs that every fold of rationals goes through, in every
    module that calls it."""
    from majorbit import measure

    path = write(tmp_path, "f.json", hostile_denominators_doc())
    fold, folds = measure._fold_pairs, []

    def counting(pairs, *args):
        pairs = list(pairs)
        if any(den > 10**3999 for _, den in pairs):
            folds.append(len(pairs))
        return fold(pairs, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("majorbit") and getattr(module, "_fold_pairs", None) is fold:
            monkeypatch.setattr(module, "_fold_pairs", counting)
    measure._space_of.cache_clear()  # a space kept from an earlier test would hide the fold
    assert cli.main(["extreme", "-x", path, "-y", path]) == 0
    capsys.readouterr()
    assert folds == [48 + 1]  # the weights and diffuse_mass


def measured_gcds(monkeypatch) -> list[int]:
    """From here on, the bit length of the larger operand of every gcd that
    the package or Fraction makes, in the returned list."""
    import math

    gcd, sizes = math.gcd, []

    def measuring(*args):
        sizes.append(max(abs(a).bit_length() for a in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", measuring)
    for name, module in list(sys.modules.items()):
        if name.startswith("majorbit") and getattr(module, "gcd", None) is gcd:
            monkeypatch.setattr(module, "gcd", measuring)
    return sizes


def test_hostile_intervals_print_without_the_common_denominator(monkeypatch):
    """The verdict prints each interval end as the running sum of its levels'
    own reduced masses, whose denominators have about 8000 digits. No end is
    reduced over the space's 96 000-digit common denominator D: every gcd
    that the package or Fraction makes while the verdict serializes is
    checked, and none has an operand a quarter of D's size."""
    from majorbit import measure
    from majorbit.extremality import check_extreme
    from majorbit.measure import parse_function

    measure._space_of.cache_clear()
    x = parse_function(hostile_denominators_doc())
    verdict = check_extreme(x, x)
    sizes = measured_gcds(monkeypatch)
    intervals = verdict.serialize()["intervals"]
    assert len(intervals) == 48 and intervals[-1]["t2"] == "1"
    assert sizes and max(sizes) < x.space._masses[0].bit_length() // 4


def test_hostile_breakpoints_sum_the_reduced_lengths(monkeypatch):
    """A scale's breakpoints are the running sums of its steps' reduced
    lengths, as the verdict prints its interval ends: no end is reduced over
    the 96 000-digit common denominator D, so no gcd made while they are
    computed has an operand a quarter of D's size."""
    from majorbit import measure
    from majorbit.measure import parse_function
    from majorbit.scales import rearrange

    measure._space_of.cache_clear()
    x = parse_function(hostile_denominators_doc())
    scale = rearrange(x)
    sizes = measured_gcds(monkeypatch)
    ends = scale.breakpoints
    assert len(ends) == 48 and ends[-1] == 1
    assert sizes and max(sizes) < x.space._masses[0].bit_length() // 4


def test_birkhoff_stdout_is_pinned(tmp_path, capsys):
    """The stdout of one birkhoff call at n = 12, pinned to what the
    recursive dense-scan matching printed."""
    from majorbit.hermitian import random_doubly_stochastic
    from majorbit.prng import SplitMix64

    entries = random_doubly_stochastic(SplitMix64(37), 12).entries
    path = write(tmp_path, "s.json", {"n": 12, "re": entries.tolist()})
    assert cli.main(["birkhoff", "-f", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a36469d85adc51faeecc8279786cafebb3aae635371f1d6fee37efffd7fa9f57"
    )


def test_birkhoff_on_the_zero_matrix_exits_2(tmp_path, capsys):
    """Within --tol 1 the zero matrix passes validation, but it has no
    doubly stochastic part to decompose: bad input, exit 2."""
    path = write(tmp_path, "z.json", {"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]]})
    code, doc = run(capsys, ["birkhoff", "-f", path, "--tol", "1"])
    assert code == 2
    assert doc == {"error": "NotDoublyStochastic", "detail": "matrix has no doubly stochastic part"}


def test_birkhoff_decomposes_a_rounded_matrix(tmp_path, capsys):
    """A doubly stochastic matrix printed to 12 decimals is accepted within
    the default tolerance; its greedy leftover has no perfect matching,
    which once made this call exit 2."""
    from majorbit.hermitian import random_doubly_stochastic
    from majorbit.prng import SplitMix64

    rng = SplitMix64(5)
    for _ in range(3):
        entries = random_doubly_stochastic(rng, rng.randint(2, 12)).entries
    rounded = [[round(v, 12) for v in row] for row in entries.tolist()]
    path = write(tmp_path, "s.json", {"n": len(rounded), "re": rounded})
    code, doc = run(capsys, ["birkhoff", "-f", path])
    assert code == 0 and doc["residual"] <= 1e-8
