"""The lazy boundary: an exact CLI call imports only the exact core, and the
package still resolves every public name.

The import checks run in a fresh interpreter, because this process already
holds numpy and every module of the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import majorbit

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "majorbit.hermitian", "majorbit.orbit", "majorbit.selftest")

# Prints, after each stage, which of HEAVY the interpreter has loaded.
PROBE = """
import contextlib, io, json, sys
heavy = {heavy!r}

def loaded():
    return [m for m in heavy if m in sys.modules]

import majorbit.cli
stages = {{"import": loaded()}}
for name, argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = majorbit.cli.main(argv)
    stages[name] = [code, loaded()]
print(json.dumps(stages))
"""

FLAT = {
    "space": {"atoms": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/2"}],
              "diffuse_mass": "0"},
    "atoms": {"a": "2", "b": "2"},
    "diffuse": [],
}
PEAK = dict(FLAT, atoms={"a": "3", "b": "1"})


def probe(calls, heavy=HEAVY):
    script = PROBE.format(heavy=heavy, calls=calls)
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_exact_subcommands_import_only_the_exact_core(tmp_path):
    x, y, m = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "m.json"
    x.write_text(json.dumps(FLAT))
    y.write_text(json.dumps(PEAK))
    m.write_text(json.dumps({"re": [[2.0, 1.0], [1.0, 2.0]]}))
    stages = probe([
        ("rearrange", ["rearrange", "-f", str(y)]),
        ("extreme", ["extreme", "-x", str(x), "-y", str(y), "--witness"]),
        ("matrix-eig", ["matrix-eig", "-f", str(m)]),
    ])
    assert stages["import"] == []
    assert stages["rearrange"] == [0, []]
    assert stages["extreme"] == [0, []]
    # the probe sees a load when there is one
    assert stages["matrix-eig"] == [0, ["numpy", "majorbit.hermitian"]]


def test_rearrange_loads_no_decision_layer_and_the_cli_no_dataclasses(tmp_path):
    """The records are built without dataclasses (and so without inspect), and the
    package loads a layer when a caller first reads one of its names."""
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(json.dumps(FLAT))
    y.write_text(json.dumps(PEAK))
    layers = ("majorbit.extremality", "majorbit.witness", "majorbit.prng", "dataclasses",
              "inspect")
    stages = probe([
        ("rearrange", ["rearrange", "-f", str(y)]),
        ("extreme", ["extreme", "-x", str(x), "-y", str(y), "--witness"]),
    ], layers)
    assert stages["import"] == []
    assert stages["rearrange"] == [0, []]
    # the probe sees a load when there is one
    assert stages["extreme"] == [0, ["majorbit.extremality", "majorbit.witness"]]


def test_prng_draws_load_no_numpy():
    """numpy is imported inside SplitMix64.normals only."""
    script = ("import sys\nfrom majorbit.prng import SplitMix64\nrng = SplitMix64(1)\n"
              "rng.random()\nprint('numpy' in sys.modules)\n"
              "rng.normals(1)\nprint('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False", "True"]  # the second: the probe sees a load


def test_every_public_name_resolves():
    for name in majorbit.__all__:
        assert getattr(majorbit, name) is not None, name
    namespace = {}
    exec("from majorbit import *", namespace)
    assert set(majorbit.__all__) <= set(namespace)
    assert namespace["HermitianOperator"] is majorbit.hermitian.HermitianOperator
    assert namespace["oracle_extreme"] is majorbit.orbit.oracle_extreme
    with pytest.raises(AttributeError, match="no_such_name"):
        majorbit.no_such_name


# Top-level modules that ``extreme --witness`` loads beyond a bare
# interpreter, captured when the frozen records replaced the dataclasses, which
# brought in _ast, _opcode, ast, copy, dataclasses, dis, inspect, linecache,
# opcode, token and tokenize. An addition must update this pin and say why.
EXTREME_IMPORTS = [
    "_decimal", "_json", "_locale", "argparse", "decimal", "fractions", "gettext", "json",
    "locale", "majorbit", "numbers",
]

# stdout is swapped for a buffer by hand, so the probe itself imports nothing
TOP_LEVEL = "import sys\nprint(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
EXTREME = """
import io, sys
import majorbit.cli
sys.stdout, out = io.StringIO(), sys.stdout
code = majorbit.cli.main(["extreme", "-x", sys.argv[1], "-y", sys.argv[2], "--witness"])
sys.stdout = out
print(code, ' '.join(sorted({m.split('.')[0] for m in sys.modules})))
"""


def test_extreme_import_set_is_pinned(tmp_path):
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(json.dumps(FLAT))
    y.write_text(json.dumps(PEAK))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", *argv], env=env, capture_output=True,
                              text=True, timeout=60, check=True).stdout.split()

    bare = set(run(TOP_LEVEL))
    code, *loaded = run(EXTREME, str(x), str(y))
    assert code == "0"
    assert sorted(set(loaded) - bare) == EXTREME_IMPORTS
