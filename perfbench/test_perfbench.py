"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(gen.generate(workload, 7), sort_keys=True)
    assert first == json.dumps(gen.generate(workload, 7), sort_keys=True)
    assert first != json.dumps(gen.generate(workload, 8), sort_keys=True)


def test_generator_imports_nothing_from_the_program():
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import gen; "
        "[gen.generate(w, 1) for w in gen.WORKLOADS]; "
        "print(any(m.startswith('majorbit') for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_golden_covers_every_digested_request():
    golden = json.loads((HERE / "golden.json").read_text())
    for workload in ("exact-small", "exact-large"):
        keys = {r["key"] for r in gen.generate(workload, 1)["schedule"]}
        assert keys <= set(golden[workload])
    cli = gen.generate("cli-cold", 1)["schedule"]
    keys = {r["key"] for r in cli if r["class"] == "exact" and r["expect_exit"] == 0}
    assert keys <= set(golden["cli-cold"])


class _Corrupting(worker.ExactRunner):
    def execute(self, req):
        out, ctx = super().execute(req)
        return out.replace('"', "'", 1), ctx


def test_corrupted_output_is_caught_and_counted():
    golden = json.loads((HERE / "golden.json").read_text())["exact-small"]
    schedule = gen.generate("exact-small", 3)["schedule"]
    clean, corrupt = worker.Stats(), worker.Stats()
    worker.run_loop(worker.ExactRunner(ROOT, golden), schedule, 0, clean, limit=6)
    samples, _ = worker.run_loop(_Corrupting(ROOT, golden), schedule, 0, corrupt, limit=6)
    assert (clean.errors, clean.wrong) == (0, 0)
    assert len(samples) == 6 and corrupt.wrong == 6
    assert all("golden digest" in line for line in corrupt.failures)


def test_raising_request_counts_as_failed_and_the_run_continues():
    schedule = gen.generate("exact-small", 3)["schedule"]
    broken = [dict(schedule[0], x="{}")] + schedule[1:4]
    golden = json.loads((HERE / "golden.json").read_text())["exact-small"]
    stats = worker.Stats()
    samples, _ = worker.run_loop(worker.ExactRunner(ROOT, golden), broken, 0, stats, limit=4)
    assert len(samples) == 4 and stats.errors == 1 and stats.wrong == 0


def test_cli_cold_fails_only_on_malformed_input():
    inputs = gen.generate("cli-cold", 4)
    golden = json.loads((HERE / "golden.json").read_text())["cli-cold"]
    work = ROOT / ".perfbench_work" / "cli-test"
    work.mkdir(parents=True, exist_ok=True)
    try:
        schedule = inputs["schedule"]
        for req in schedule:
            req["cmd"] = gen.write_cli_files(req, str(work))
        stats = worker.Stats()
        worker.run_loop(worker.CliRunner(ROOT, golden), schedule, 0, stats, limit=len(schedule))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    malformed = sum(1 for req in schedule if req["expect_exit"] != 0)
    assert malformed == len(schedule) // 10 and stats.wrong == 0
    assert stats.errors <= malformed
    assert all(line.startswith("error: malformed-") for line in stats.failures)


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_each_workload_completes_at_a_tiny_length(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] is True and result["attempted"] >= 1
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("--workload", "exact-small", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
