"""Fuzz every file-reading subcommand with mutated valid documents.

Whatever the input, the CLI prints exactly one JSON document and exits 0
(a completed computation) or 2 (bad input); exit 3 is reserved for real
invariant failures, which no document may provoke."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from majorbit import cli

HUGE_INT = "<huge-int>"  # stands for a 5000-digit JSON integer, which json.dumps refuses
DEEP = "<deep-array>"  # stands for arrays nested 1000 deep, past the parser's recursion limit

ATOMIC_X = {
    "space": {"atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/4"},
                        {"id": "c", "weight": "1/4"}], "diffuse_mass": "0"},
    "atoms": {"a": "2", "b": "2", "c": "1"},
    "diffuse": [],
}
ATOMIC_Y = dict(ATOMIC_X, atoms={"a": "3", "b": "1", "c": "1"})
MIXED_X = {
    "space": {"atoms": [{"id": "e", "weight": "1/2"}], "diffuse_mass": "1/2"},
    "atoms": {"e": "3"},
    "diffuse": [{"value": "2", "mass": "1/4"}, {"value": "2", "mass": "1/4"}],
}
MIXED_Y = dict(MIXED_X, diffuse=[{"value": "4", "mass": "1/4"}, {"value": "0", "mass": "1/4"}])
MATRIX = {"n": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "im": [[0.0, 0.5], [-0.5, 0.0]]}
DIAGONAL = {"n": 2, "re": [[2.5, 0.0], [0.0, 1.5]]}
STOCHASTIC = {"n": 2, "re": [[0.25, 0.75], [0.75, 0.25]]}

# subcommand -> its file flags, each with the valid documents it may start from
COMMANDS = {
    "rearrange": {"-f": [ATOMIC_Y, MIXED_Y]},
    "majorise": {"-x": [ATOMIC_X, MIXED_X], "-y": [ATOMIC_Y, MIXED_Y]},
    "submajorise": {"-x": [ATOMIC_X, MIXED_X], "-y": [ATOMIC_Y, MIXED_Y]},
    "extreme": {"-x": [ATOMIC_X, MIXED_X], "-y": [ATOMIC_Y, MIXED_Y]},
    "witness": {"-x": [ATOMIC_X, MIXED_X], "-y": [ATOMIC_Y, MIXED_Y]},
    "oracle": {"-x": [ATOMIC_X], "-y": [ATOMIC_Y]},
    "enumerate": {"-y": [ATOMIC_Y, MIXED_Y]},
    "sample": {"-y": [ATOMIC_Y, MIXED_Y]},
    "matrix-eig": {"-f": [MATRIX, DIAGONAL]},
    "matrix-majorise": {"-x": [DIAGONAL], "-y": [MATRIX]},
    "matrix-extreme": {"-x": [DIAGONAL], "-y": [MATRIX]},
    "birkhoff": {"-f": [STOCHASTIC]},
    "ttransform": {"-x": [["2", "2", "2"], [2.0, 1.5, 2.5]], "-y": [["3", "2", "1"]]},
}

REPLACEMENTS = st.sampled_from([
    None, True, 0, -1, 7, "x", "", [], {}, [[]],
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
    "1/0", "0", "-1", "1/3", "0.5", "1" * 5000, HUGE_INT,
    int("9" * 400), "9" * 400,  # within the digit limit, outside the float range
    DEEP,
])


def paths(doc, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from paths(value, prefix + (index,))


def mutated(data, doc) -> str:
    """The document as JSON text after one to three random mutations: a
    deleted key or entry, a replaced value, the whole document wrapped in a
    JSON string, or the text cut short."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(paths(doc))))
        action = data.draw(st.sampled_from(["delete", "replace", "wrap"]))
        if action == "wrap" or not path:
            doc = json.dumps(doc) if action == "wrap" else data.draw(REPLACEMENTS)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(REPLACEMENTS)
    text = json.dumps(doc).replace(json.dumps(HUGE_INT), "1" * 5000)
    text = text.replace(json.dumps(DEEP), "[" * 1000 + "]" * 1000)
    if data.draw(st.integers(0, 4)) == 4:
        text = text[: data.draw(st.integers(0, max(len(text) - 1, 0)))]
    return text


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
def test_any_document_gives_one_json_document_and_exit_0_or_2(command, data):
    flags = COMMANDS[command]
    mutate = data.draw(st.sets(st.sampled_from(sorted(flags)), min_size=1))
    argv = [command]
    if command not in ("matrix-eig", "matrix-majorise", "matrix-extreme", "birkhoff",
                       "ttransform") and data.draw(st.booleans()):
        argv.append("--normalize")
    with tempfile.TemporaryDirectory() as tmp:
        for flag, choices in flags.items():
            doc = data.draw(st.sampled_from(choices))
            text = mutated(data, doc) if flag in mutate else json.dumps(doc)
            path = Path(tmp) / f"{flag[1:]}.json"
            path.write_text(text)
            argv += [flag, str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    out = stdout.getvalue()
    assert code in (0, 2), (argv, out)
    assert out.count("\n") == 1
    doc = json.loads(out)
    if code == 2:
        assert isinstance(doc, dict) and "error" in doc
