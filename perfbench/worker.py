"""One workload in one fresh process: set up, run the closed loop, check
every output, and write a JSON result for ``run.py``.

    python3 perfbench/worker.py --root . --workload exact-small \
        --requests work/requests.json --seconds 20 --trace 0 --out work/result.json
    python3 perfbench/worker.py --root . --workload exact-small \
        --requests work/requests.json --setup   # prints {"setup_s": ..., "speed_factor": ...}

The loop is closed with one client and no think time. It makes whole
passes over the schedule, as many as take closest to ``--seconds`` of
request time and at least three; the output checks and the reference
computation of ``calibrate.py`` run between requests, outside the timed
region.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

# The highest percentile with at least ten of the pool's distinct requests
# beyond it (pool sizes in gen.POOL_SIZES).
TAIL_PERCENTILE = {"exact-small": 99.0, "exact-large": 75.0, "matrix": 90.0, "cli-cold": 66.0}

WALL_LIMIT_S = 120.0
MIN_PASSES = 3
REFERENCE_EVERY_S = 0.025
REFERENCE_BURST = 5
CHILD_TIMEOUT_S = 60.0
EIG_RESIDUAL_LIMIT = 1e-10
CONTRACT_RESIDUAL_LIMIT = 1e-10


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def expected_steps(spectrum, n):
    counts: dict[int, int] = {}
    for value in spectrum:
        counts[value] = counts.get(value, 0) + 1
    return [(v, Fraction(c, n)) for v, c in sorted(counts.items(), reverse=True)]


def steps_match(steps, spectrum, n) -> bool:
    """A spectral scale (list of (value, length)) equals the known integer
    spectrum: exact lengths, values within float noise."""
    want = expected_steps(spectrum, n)
    return len(steps) == len(want) and all(
        Fraction(length) == w_len and abs(float(value) - w_val) <= 1e-8 * (1 + abs(w_val))
        for (value, length), (w_val, w_len) in zip(steps, want)
    )


class Stats:
    """Per-run outcome counts and input-property tallies."""

    def __init__(self):
        self.errors = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.props: dict[str, list] = {}

    def fail(self, category: str, req: dict, detail: str) -> None:
        if category == "error":
            self.errors += 1
        else:
            self.wrong += 1
        line = f"{category}: {req['kind']} pool={req['pool']}: {detail}"
        if len(self.failures) < 20 and line not in self.failures:
            self.failures.append(line)

    def note(self, name: str, value) -> None:
        self.props.setdefault(name, []).append(value)


class ExactRunner:
    """exact-small and exact-large: parse x and y, decide with the witness
    (or run the oracle), serialize."""

    def __init__(self, root: Path, golden: dict):
        import majorbit

        # calls go through the package so that the traced run's wrappers apply
        self.mb = majorbit
        self.golden = golden
        self.verdicts: dict[int, bool] = {}
        self.bad_pools: dict[int, str] = {}

    def execute(self, req):
        mb = self.mb
        x = mb.parse_function(req["x"])
        y = mb.parse_function(req["y"])
        if req["kind"] == "decide":
            verdict = mb.check_extreme(x, y)
            return json.dumps(verdict.serialize(include_witness=True)), (x, y, verdict)
        return json.dumps({"extreme": mb.oracle_extreme(x, y)}), None

    def check(self, req, out, ctx, first: bool, stats: Stats) -> None:
        if self.golden.get(req["key"]) != digest(out):
            stats.fail("wrong", req, "output differs from the golden digest")
            return
        if first:
            self._check_instance(req, out, ctx, stats)
        if req["pool"] in self.bad_pools:
            stats.fail("wrong", req, self.bad_pools[req["pool"]])

    def _check_instance(self, req, out, ctx, stats: Stats) -> None:
        pool = req["pool"]
        props = req["props"]
        if req["kind"] == "oracle":
            stats.note("subsets", 2 ** props["atoms"] - 1)
            if pool in self.verdicts and json.loads(out)["extreme"] != self.verdicts[pool]:
                self.bad_pools[pool] = "oracle disagrees with check_extreme"
            return
        x, y, verdict = ctx
        self.verdicts[pool] = verdict.extreme
        stats.note("breakpoints", props["breakpoints"])
        stats.note("carriers", props["carriers"])
        stats.note("intervals", len(verdict.intervals))
        stats.note("extreme", verdict.extreme)
        if req.get("origin") in ("condition1", "condition2") and not verdict.extreme:
            self.bad_pools[pool] = f"x is extreme by construction ({req['origin']})"
        if verdict.witness is not None:
            stats.note("witness_case", verdict.witness.perturbation.case_tag)
            stats.note("witness_carriers", props["carriers"])
            verified = self.mb.verify_witness(x, y, verdict.witness)
            stats.note("verified", verified)
            if not verified:
                self.bad_pools[pool] = "witness failed verify_witness"


class MatrixRunner:
    """Hermitian n = 12 requests, six kinds in equal shares. Float outputs
    are checked against the contracts of criterion 7, not digested."""

    def __init__(self, root: Path, golden: dict):
        import majorbit
        import numpy as np

        self.np = np
        self.mb = majorbit

    def execute(self, req):
        mb = self.mb
        kind = req["kind"]
        if kind == "eig_scale":
            a = mb.HermitianOperator.from_document(json.loads(req["y"]))
            return json.dumps(mb.eig_scale(a).serialize()), a
        if kind == "matrix_majorise":
            x = mb.HermitianOperator.from_document(json.loads(req["x"]))
            y = mb.HermitianOperator.from_document(json.loads(req["y"]))
            report = mb.matrix_majorise(x, y)
            return json.dumps(report.serialize()), report.holds
        if kind == "check_extreme_diag":
            x = mb.HermitianOperator.from_document(json.loads(req["x"]))
            y = mb.HermitianOperator.from_document(json.loads(req["y"]))
            verdict = mb.check_extreme_diag(x, y)
            return json.dumps({"extreme": verdict}), verdict
        if kind == "birkhoff_decompose":
            s = mb.hermitian.DoublyStochastic.from_document(json.loads(req["s"]))
            decomposition = mb.birkhoff_decompose(s)
            return json.dumps(decomposition.serialize()), (s, decomposition)
        if kind == "t_transform_chain":
            s = mb.t_transform_chain(json.loads(req["x"]), json.loads(req["y"]))
            return json.dumps({"matrix": s.entries.tolist()}), s
        report = mb.identity_suite(req["seed"], n=req["n"], trials=1)
        return json.dumps(report.serialize()), report

    def check(self, req, out, ctx, first: bool, stats: Stats) -> None:
        np = self.np
        kind, n = req["kind"], req["n"]
        if first:
            stats.note("dim", n)
        if kind == "eig_scale":
            steps = [(Fraction(s["value"]), Fraction(s["length"])) for s in json.loads(out)["steps"]]
            w, v = ctx.eigensystem()
            residual = float(np.max(np.abs(ctx.entries @ v - v * w)))
            stats.note("eig_residual", residual)
            if not steps_match(steps, req["spectrum"], n):
                stats.fail("wrong", req, "spectral scale differs from the known spectrum")
            elif residual > EIG_RESIDUAL_LIMIT * (1 + float(np.max(np.abs(w)))):
                stats.fail("wrong", req, f"eigen residual {residual}")
        elif kind == "matrix_majorise":
            if ctx is not True:
                stats.fail("wrong", req, "an averaged spectrum must be majorised")
        elif kind == "check_extreme_diag":
            if ctx != req["expect_extreme"]:
                stats.fail("wrong", req, f"verdict {ctx}, expected {req['expect_extreme']}")
        elif kind == "birkhoff_decompose":
            s, decomposition = ctx
            residual = float(np.max(np.abs(decomposition.matrix(n) - s.entries)))
            terms = len(decomposition.terms)
            stats.note("birkhoff_residual", residual)
            stats.note("birkhoff_terms", terms)
            total = sum(c for c, _ in decomposition.terms)
            if residual > CONTRACT_RESIDUAL_LIMIT or terms > (n - 1) ** 2 + 1 or abs(total - 1) > 1e-12:
                stats.fail("wrong", req, f"Birkhoff residual {residual} with {terms} terms")
        elif kind == "t_transform_chain":
            x, y = np.array(json.loads(req["x"])), np.array(json.loads(req["y"]))
            residual = float(np.max(np.abs(ctx.entries @ y - x)))
            if residual > CONTRACT_RESIDUAL_LIMIT:
                stats.fail("wrong", req, f"T-transform residual {residual}")
        elif not ctx.passed or sum(ctx.trials.values()) != 4:
            stats.fail("wrong", req, f"identity trial {ctx.serialize()}")


class CliRunner:
    """One ``python -m majorbit`` child at a time. The traced run drives
    ``majorbit.cli.main`` in-process instead, to split the time by layer."""

    def __init__(self, root: Path, golden: dict):
        from majorbit import cli

        self.cli = cli
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.in_process = False

    def execute(self, req):
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(req["cmd"])
            return buffer.getvalue(), code
        proc = subprocess.run(
            [sys.executable, "-m", "majorbit", *req["cmd"]],
            env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.stdout.decode(), proc.returncode

    def check(self, req, out, code, first: bool, stats: Stats) -> None:
        if first and "props" in req:
            stats.note("breakpoints", req["props"]["breakpoints"])
            stats.note("carriers", req["props"]["carriers"])
        if code != req["expect_exit"]:
            stats.fail("error", req, f"exit {code}, expected {req['expect_exit']}: {out.strip()[:120]}")
            return
        if req["expect_exit"] != 0:
            doc = json.loads(out)
            if not (isinstance(doc, dict) and "error" in doc):
                stats.fail("wrong", req, "bad input must print one error document")
        elif req["class"] == "exact":
            if self.golden.get(req["key"]) != digest(out):
                stats.fail("wrong", req, "stdout differs from the golden digest")
            elif first and req["kind"] == "extreme":
                verdict = json.loads(out)
                stats.note("intervals", len(verdict["intervals"]))
                stats.note("extreme", verdict["verdict"] == "extreme")
                if "witness" in verdict:
                    stats.note("witness_case", verdict["witness"]["case"])
        else:
            if first:
                stats.note("dim", req["n"])
            steps = [(Fraction(s["value"]), Fraction(s["length"])) for s in json.loads(out)["steps"]]
            if not steps_match(steps, req["spectrum"], req["n"]):
                stats.fail("wrong", req, "spectral scale differs from the known spectrum")


RUNNERS = {
    "exact-small": ExactRunner,
    "exact-large": ExactRunner,
    "matrix": MatrixRunner,
    "cli-cold": CliRunner,
}


def request_class(workload: str, req: dict) -> str:
    if workload == "cli-cold":
        return req["class"]
    if workload == "exact-large":
        return req["origin"]
    return req["kind"]


def execute_timed(runner, req, tracer=None, request_id=None):
    """Run one request; returns (latency in s, output, context, error).
    With a tracer, the wrappers are in place only for this request."""
    if tracer is None:
        start = perf_counter()
        try:
            out, ctx = runner.execute(req)
        except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
            return perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, out, ctx, None
    tracer.install()
    try:
        with tracer.request_span(request_id):
            return execute_timed(runner, req)
    finally:
        tracer.uninstall()


def run_loop(runner, schedule, seconds, stats, tracer=None, limit=None, reference=None):
    """Closed loop over the schedule, repeated a whole number of times: as
    many passes as make the requests take closest to ``seconds``, and at
    least ``MIN_PASSES`` (a run shorter than one pass stops when the time
    is used up). Returns per-request (schedule index, latency in s).

    With a tracer each request runs twice, untraced and traced, in
    alternating order; the traced copy is checked and returned, and the
    untraced latencies come back as a second, aligned list. With a
    ``reference`` list, the reference computation is timed in a short
    burst after every ``REFERENCE_EVERY_S`` of request time and appended
    to it."""
    if reference is not None:
        from calibrate import time_reference
    samples, untraced = [], []
    seen = set()
    busy = since_reference = 0.0
    wall_start = perf_counter()
    i = 0
    while True:
        index = i % len(schedule)
        req = schedule[index]
        if tracer is None:
            latency, out, ctx, error = execute_timed(runner, req)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    latency, out, ctx, error = execute_timed(runner, req, tracer, i)
                else:
                    plain = execute_timed(runner, req)[0]
                    untraced.append((index, plain))
                    busy += plain
        busy += latency
        samples.append((index, latency))
        since_reference += latency
        if reference is not None and since_reference >= REFERENCE_EVERY_S:
            # a burst, so that the caches the request evicted warm up again
            reference.extend(time_reference() for _ in range(REFERENCE_BURST))
            since_reference = 0.0
        key = (req["pool"], req["kind"])
        if error is not None:
            stats.fail("error", req, error)
        else:
            try:
                runner.check(req, out, ctx, key not in seen, stats)
            except Exception as exc:  # noqa: BLE001 - output the checks cannot read
                stats.fail("wrong", req, f"unreadable output: {type(exc).__name__}: {exc}")
        seen.add(key)
        i += 1
        if limit is not None:
            if i >= limit:
                break
        elif i % len(schedule) == 0:
            # stop at the pass boundary nearest to the run length, so that
            # every run sees the same mix of requests
            passes = i // len(schedule)
            if passes >= MIN_PASSES and busy + busy / passes / 2 >= seconds:
                break
        elif (i < len(schedule) and busy >= seconds) or perf_counter() - wall_start >= WALL_LIMIT_S:
            break
    return samples, untraced


def latency_summary(workload, schedule, samples, factor) -> dict:
    """Each request of the schedule runs once per pass. Its latency is its
    fastest pass (interference only adds time) scaled by the run's speed
    factor (``calibrate.py``); the gated metrics are taken over those. The
    same figures without the scaling, and over every execution as run,
    are reported alongside."""
    best: dict[int, float] = {}
    for index, lat in samples:
        best[index] = min(lat, best.get(index, lat))
    pct = TAIL_PERCENTILE[workload]

    def figures(latencies):
        latencies = sorted(latencies)
        return {
            "throughput_rps": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, pct) * 1e3,
        }

    scaled = {index: lat * factor for index, lat in best.items()}
    tail = percentile(sorted(scaled.values()), pct)
    by_class: dict[str, list[float]] = {}
    for index, lat in scaled.items():
        by_class.setdefault(request_class(workload, schedule[index]), []).append(lat)
    return {
        **figures(scaled.values()),
        "requests": len(best),
        "passes": len(samples) / len(best),
        "speed_factor": factor,
        "tail_percentile": pct,
        "beyond_tail": sum(1 for lat in scaled.values() if lat > tail),
        "fastest_pass": figures(best.values()),
        "as_run": figures(lat for _, lat in samples),
        "class_p50_ms": {c: statistics.median(v) * 1e3 for c, v in sorted(by_class.items())},
        "class_requests": {c: len(v) for c, v in sorted(by_class.items())},
    }


def property_summary(stats: Stats) -> dict:
    p = stats.props

    def mean(name):
        values = p.get(name, [])
        return statistics.fmean(values) if values else 0.0

    cases = p.get("witness_case", [])
    return {
        "scales.breakpoints": mean("breakpoints"),
        "extremality.intervals": mean("intervals"),
        "extremality.extreme_share": mean("extreme"),
        "witness.carriers": mean("witness_carriers"),
        "witness.verified_ratio": mean("verified"),
        "witness.built": len(p.get("verified", [])),
        "witness.cases": {c: cases.count(c) for c in sorted(set(cases))},
        "orbit.subsets": mean("subsets"),
        "hermitian.birkhoff_terms": mean("birkhoff_terms"),
        "hermitian.eig_residual_max": max(p.get("eig_residual", [0.0])),
        "hermitian.birkhoff_residual_max": max(p.get("birkhoff_residual", [0.0])),
        "carriers": mean("carriers"),
        "matrix_dims": sorted(set(p.get("dim", []))),
    }


def child_median_ms(env, code: str, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter running ``code``; for an
    import, the time the child measures around the import itself."""
    times = []
    for _ in range(repeats):
        if code == "pass":
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                           timeout=CHILD_TIMEOUT_S)
            times.append(perf_counter() - start)
        else:
            script = ("from time import perf_counter as p; s = p(); " + code +
                      "; print(p() - s)")
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
            times.append(float(proc.stdout))
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--requests", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    if args.workload == "cli-cold" and not args.setup:
        # the children inherit this CPU, so the reference computation timed
        # between them sees the CPU they ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(args.requests, encoding="utf-8") as handle:
        doc = json.load(handle)
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle).get(args.workload, {})
    schedule = doc["schedule"]

    # set-up: import the layers the workload reaches, then warm up on a
    # fixed set of requests (one per kind, independent of the seed)
    start = perf_counter()
    runner = RUNNERS[args.workload](root, golden)
    if args.workload == "cli-cold":
        runner.in_process = args.setup
    for req in doc["warmup"]:
        runner.execute(req)
    setup_s = perf_counter() - start
    import calibrate  # after set-up: it imports numpy

    if args.setup:
        factor = calibrate.speed_factor(calibrate.time_reference() for _ in range(50))
        print(json.dumps({"setup_s": setup_s, "speed_factor": factor}))
        return 0

    stats = Stats()
    result = {"workload": args.workload}
    if args.trace == 0:
        reference: list[float] = []
        samples, _ = run_loop(runner, schedule, args.seconds, stats, reference=reference)
        factor = calibrate.speed_factor(reference)
        result["latency"] = latency_summary(args.workload, schedule, samples, factor)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        layers = {
            "cli.interpreter_ms": child_median_ms(env, "pass"),
            "cli.import_ms": child_median_ms(env, "import majorbit.cli"),
        }
        if args.workload == "cli-cold":
            runner.in_process = True
        tracer = Tracer()
        tracer.bind("majorbit")
        samples, untraced = run_loop(runner, schedule, args.seconds, stats, tracer)
        if args.trace_file:
            tracer.flush(args.trace_file)
        layers.update(tracer.summary())
        # each request ran untraced and traced, in alternating order
        layers["trace.overhead_ratio"] = statistics.median(
            traced / plain for (_, traced), (_, plain) in zip(samples, untraced)
        )
        result["layers"] = layers
        result["missing_targets"] = tracer.missing
    result["attempted"] = len(samples)
    result["errors"] = stats.errors
    result["wrong"] = stats.wrong
    result["failures"] = stats.failures
    result["properties"] = property_summary(stats)
    text = json.dumps(result, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
