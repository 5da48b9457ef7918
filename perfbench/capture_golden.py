"""Capture the golden output digests in ``golden.json``.

    python3 perfbench/capture_golden.py

Runs every well-formed request of the exact workloads' pools (and the
exact cli-cold subcommands, as child processes) through the program in
this checkout and stores a digest of each output, keyed by a hash of the
request. The benchmark then fails any request whose output differs by a
single byte. Rerun only when the generator changes; a change to the
program must reproduce the digests captured before it.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import worker  # noqa: E402

DIGESTED = ("exact-small", "exact-large", "cli-cold")


def capture(workload: str, scratch: Path) -> dict:
    inputs = gen.generate(workload, 0)
    runner = worker.RUNNERS[workload](ROOT, {})
    digests = {}
    for req in inputs["schedule"]:
        if workload == "cli-cold":
            if req["class"] != "exact" or req["expect_exit"] != 0:
                continue
            req["cmd"] = gen.write_cli_files(req, str(scratch))
        out, _ = runner.execute(req)
        digests[req["key"]] = worker.digest(out)
    return dict(sorted(digests.items()))


def main() -> int:
    scratch = ROOT / ".perfbench_work" / "golden"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        golden = {"about": "sha256[:32] of each output, keyed by gen.request_key"}
        for workload in DIGESTED:
            golden[workload] = capture(workload, scratch)
            print(f"{workload}: {len(golden[workload])} digests", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
