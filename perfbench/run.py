"""Benchmark entry point: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. It generates the seeded inputs
(``gen.py``), runs the closed loop in a fresh process (``worker.py``),
measures set-up in ten more fresh processes (half before the loop, half
after) and takes their median, prints a report line per metric, and
prints the result as one JSON object on the last line. With ``--trace 1`` the metrics are the per-layer ones
from a traced run (``spans.py``). The metric names and units come from
``BENCHMARK.json``. Scratch files go to ``.perfbench_work/`` and are
removed at the end; the last traced run's spans stay in
``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_REPEATS = 10
TOTAL_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def end_to_end(result: dict, setup: list) -> dict:
    latency = result["latency"]
    return {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "throughput_rps": latency["throughput_rps"],
        "latency_p50_ms": latency["latency_p50_ms"],
        "latency_tail_ms": latency["latency_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    values = dict(result["layers"])
    values.update({k: v for k, v in result["properties"].items() if isinstance(v, (int, float))})
    return values


def machine() -> dict:
    """Interpreter, numpy, core count and CPU model of this machine."""
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu}


def report(workload: str, seed: int, result: dict, values: dict, units: dict, setup: list) -> None:
    print(f"machine {json.dumps(machine())}")
    attempted = result["attempted"]
    failed = result["errors"] + result["wrong"]
    print(f"workload {workload} seed {seed}: {attempted} requests attempted, "
          f"{failed} failed ({result['errors']} errors, {result['wrong']} wrong outputs)")
    print(f"  failed_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})")
    for failure in result["failures"]:
        print(f"  failure {failure}")
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    latency = result.get("latency")
    if latency:
        print(f"  latency_tail_ms is p{latency['tail_percentile']:g} "
              f"({latency['beyond_tail']} of {latency['requests']} requests beyond it); "
              f"each request's fastest of {latency['passes']:.3g} passes")
        print(f"  speed factor {latency['speed_factor']:.4f} (nominal ÷ reference time now)")
        for label, key in (("unscaled, fastest pass", "fastest_pass"), ("as run, every execution", "as_run")):
            figures = latency[key]
            print(f"  {label}: latency_p50_ms {figures['latency_p50_ms']:.6g} ms, "
                  f"latency_tail_ms {figures['latency_tail_ms']:.6g} ms, "
                  f"throughput_rps {figures['throughput_rps']:.6g} 1/s")
        if workload == "cli-cold":
            classes = latency["class_p50_ms"]
            print(f"  exact_cold_p50_ms {classes.get('exact', 0.0):.6g} ms")
            print(f"  matrix_cold_p50_ms {classes.get('matrix', 0.0):.6g} ms")
        for name, p50 in latency["class_p50_ms"].items():
            print(f"  class {name}: p50 {p50:.6g} ms over {latency['class_requests'][name]} requests")
    if setup:
        print(f"  setup_s unscaled: median {statistics.median(raw for _, raw in setup):.6g} s "
              f"over {len(setup)} fresh processes")
    props = result["properties"]
    print(f"  inputs: carriers {props['carriers']:.4g}, breakpoints {props['scales.breakpoints']:.4g}, "
          f"extreme share {props['extremality.extreme_share']:.4g}, "
          f"witness cases {json.dumps(props['witness.cases'])}, matrix dims {props['matrix_dims']}")
    if result.get("missing_targets"):
        print(f"  untraced (not found): {', '.join(result['missing_targets'])}")


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    started = perf_counter()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = gen.generate(workload, seed)
        if workload == "cli-cold":
            for req in inputs["schedule"] + inputs["warmup"]:
                req["cmd"] = gen.write_cli_files(req, str(work))
        requests = work / "requests.json"
        requests.write_text(json.dumps(inputs))
        common = ["--workload", workload, "--requests", str(requests)]

        def measure_setup(repeats):
            for _ in range(repeats if trace == 0 else 0):
                proc = worker([*common, "--setup"], TOTAL_LIMIT_S - (perf_counter() - started))
                probe = json.loads(proc.stdout.strip().splitlines()[-1])
                setup.append((probe["setup_s"] * probe["speed_factor"], probe["setup_s"]))

        # half the set-ups before the loop and half after, so that one slow
        # stretch of the shared machine does not decide the median
        setup: list[tuple[float, float]] = []  # (scaled, as measured)
        measure_setup(SETUP_REPEATS // 2)
        out = work / "result.json"
        args = [*common, "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
        if trace:
            traces = ROOT / ".perfbench_out"
            traces.mkdir(exist_ok=True)
            args += ["--trace-file", str(traces / f"trace-{workload}.jsonl")]
        worker(args, TOTAL_LIMIT_S - (perf_counter() - started))
        measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    produced = per_layer(result) if trace else end_to_end(result, setup)
    missing = sorted(set(units) - set(produced))
    if missing:
        return fail(f"no value for declared metrics {missing}")
    values = {name: float(produced[name]) for name in units}
    report(workload, seed, result, values, units, setup)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["errors"] + result["wrong"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "majorbit" / "__init__.py").is_file():
        return fail(f"no majorbit sources under {ROOT / 'src'}; run from a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload != "all":
        return run_one(args.workload, args.seed, seconds, args.trace, spec)
    # every workload in its own fresh process
    code = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            timeout=TOTAL_LIMIT_S + 10,
        )
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
