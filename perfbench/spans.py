"""Spans around the calls into each layer's public functions.

Only the traced run installs these wrappers, and only for the duration of
each traced request; the untraced run wraps nothing. Spans (name, start,
end, parent, request id) are kept in memory and written out once, when the
run ends. No layer has a queue or a lock, so a span is all busy time:
there is no wait time to record.
"""

import contextlib
import json
import statistics
import sys
import weakref
from time import perf_counter

LAYERS = ("cli", "measure", "scales", "extremality", "witness", "orbit", "hermitian", "bench")

# (span name, module, attribute path). ``hermitian.eigensystem`` is timed
# only on an operator's first call, because the operator caches the result.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("measure.parse_function", "measure", "parse_function"),
    ("scales.rearrange", "scales", "rearrange"),
    ("scales.majorise_check", "scales", "majorise_check"),
    ("extremality.evaluate_conditions", "extremality", "evaluate_conditions"),
    ("extremality.check_extreme", "extremality", "check_extreme"),
    ("extremality.serialize", "extremality", "ExtremalityVerdict.serialize"),
    ("witness.build_witness", "witness", "build_witness"),
    ("witness.admissible_delta", "witness", "admissible_delta"),
    ("witness.verify_witness", "witness", "verify_witness"),
    ("orbit.oracle_extreme", "orbit", "oracle_extreme"),
    ("hermitian.eigensystem", "hermitian", "HermitianOperator.eigensystem"),
    ("hermitian.eig_scale", "hermitian", "eig_scale"),
    ("hermitian.matrix_majorise", "hermitian", "matrix_majorise"),
    ("hermitian.check_extreme_diag", "hermitian", "check_extreme_diag"),
    ("hermitian.birkhoff_decompose", "hermitian", "birkhoff_decompose"),
    ("hermitian.t_transform_chain", "hermitian", "t_transform_chain"),
    ("hermitian.identity_trial", "hermitian", "identity_suite"),
)

ROOT = "bench.request"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = None
        self.missing: list[str] = []
        self.bindings: list = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, first_call_only: bool = False):
        seen = weakref.WeakSet() if first_call_only else None

        def wrapper(*args, **kwargs):
            if seen is not None:
                if args[0] in seen:
                    return fn(*args, **kwargs)
                seen.add(args[0])
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return wrapper

    def bind(self, package) -> None:
        """Find every binding of each target in the package's loaded
        modules (``from .scales import rearrange`` copies the binding) and
        make its wrapper. Modules the workload never imported are skipped."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(f"{package}.{module_name}")
            if owner is None:
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, first_call_only=name == "hermitian.eigensystem")
            for target in [owner] if cls_path else modules:
                for binding, value in list(vars(target).items()):
                    if value is fn:
                        self.bindings.append((target, binding, fn, wrapper))

    def install(self) -> None:
        for target, binding, _, wrapper in self.bindings:
            setattr(target, binding, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back, so untraced requests run
        exactly the code of the untraced run."""
        for target, binding, fn, _ in self.bindings:
            setattr(target, binding, fn)

    @contextlib.contextmanager
    def request_span(self, request_id):
        self.request = request_id
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)

    def flush(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")

    def summary(self) -> dict:
        """Per-function median ms and calls per request; per-layer self time
        (duration minus child spans) in ms per request."""
        requests = sum(1 for s in self.spans if s[0] == ROOT) or 1
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            self_time[name.split(".")[0]] += end - start - child_time[index]
        out = {}
        for name, _, _ in TARGETS:
            values = durations.get(name, [])
            out[f"{name}_ms"] = statistics.median(values) * 1e3 if values else 0.0
            out[f"{name}_calls"] = len(values) / requests
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_time[layer] * 1e3 / requests
        return out
