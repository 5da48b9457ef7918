"""Command-line front end: one subcommand per operation, JSON in and out.

Exit codes encode computational health, not mathematical truth: 0 for a
completed computation (whatever the verdict), 2 for input or schema
problems, 3 for internal invariant violations. stdout carries exactly one
JSON document; human-readable logs go to stderr.
"""

import argparse
import json
import math
import sys

from .errors import InternalError, MajorbitError, SchemaError
from .measure import parse_function, parse_function_normalized, serialize_function
from .scales import majorise_check, rearrange, submajorise_check


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, an integer over the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _at_least(minimum, maximum=math.inf):
    """argparse type: an integer from ``minimum`` to ``maximum``."""

    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return integer


def _positive_tol(args, default):
    """--tol if given, else the default; a tolerance that is zero, negative
    or not finite would make the check it relaxes meaningless."""
    if args.tol is None:
        return default
    if not 0 < args.tol < math.inf:
        raise SchemaError(f"--tol must be finite and > 0, got {args.tol}")
    return args.tol


def _load_function(path, normalize=False):
    doc = _read_json(path)
    if normalize:
        return parse_function_normalized(doc)
    return parse_function(doc)


def _load_matrix(path, tol):
    from .hermitian import HermitianOperator

    return HermitianOperator.from_document(_read_json(path), tol=tol)


def _load_vector(path):
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise SchemaError(f"{path} must hold a JSON array")
    return doc


def _cmd_rearrange(args):
    return 0, rearrange(_load_function(args.function, args.normalize)).serialize()


def _cmd_majorise(args):
    x = _load_function(args.x, args.normalize)
    y = _load_function(args.y, args.normalize)
    return 0, majorise_check(rearrange(x), rearrange(y)).serialize()


def _cmd_submajorise(args):
    x = _load_function(args.x, args.normalize)
    y = _load_function(args.y, args.normalize)
    return 0, {"holds": submajorise_check(x, y)}


def _cmd_extreme(args):
    from .extremality import check_extreme

    x = _load_function(args.x, args.normalize)
    y = _load_function(args.y, args.normalize)
    verdict = check_extreme(x, y)
    return 0, verdict.serialize(include_witness=args.witness)


def _cmd_witness(args):
    from .witness import build_witness, serialize_witness

    x = _load_function(args.x, args.normalize)
    y = _load_function(args.y, args.normalize)
    return 0, serialize_witness(build_witness(x, y))


def _cmd_oracle(args):
    from .orbit import oracle_extreme

    x = _load_function(args.x, args.normalize)
    y = _load_function(args.y, args.normalize)
    return 0, {"extreme": oracle_extreme(x, y)}


def _cmd_enumerate(args):
    from .orbit import enumerate_extreme

    y = _load_function(args.y, args.normalize)
    return 0, [serialize_function(f) for f in enumerate_extreme(y)]


def _cmd_sample(args):
    from .orbit import sample_orbit

    y = _load_function(args.y, args.normalize)
    return 0, serialize_function(sample_orbit(y, args.seed))


def _cmd_matrix_eig(args):
    from .hermitian import eig_scale

    a = _load_matrix(args.function, args.tol)
    return 0, eig_scale(a, snap_denominator=args.snap).serialize()


def _cmd_matrix_majorise(args):
    from .hermitian import matrix_majorise

    x = _load_matrix(args.x, args.tol)
    y = _load_matrix(args.y, args.tol)
    return 0, matrix_majorise(x, y, tol=args.tol).serialize()


def _cmd_matrix_extreme(args):
    from .hermitian import check_extreme_diag

    x = _load_matrix(args.x, args.tol)
    y = _load_matrix(args.y, args.tol)
    return 0, {"extreme": check_extreme_diag(x, y)}


def _cmd_birkhoff(args):
    from .hermitian import DoublyStochastic, birkhoff_decompose

    doc = _read_json(args.function)
    ds = DoublyStochastic.from_document(doc, tol=_positive_tol(args, 1e-9))
    decomposition = birkhoff_decompose(ds)
    out = decomposition.serialize()
    import numpy as np

    out["residual"] = float(np.max(np.abs(decomposition.matrix(ds.n) - ds.entries)))
    return 0, out


def _cmd_ttransform(args):
    from .hermitian import t_transform_chain

    x = _load_vector(args.x)
    y = _load_vector(args.y)
    s = t_transform_chain(x, y)
    return 0, {"matrix": s.entries.tolist()}


def _cmd_suite(args):
    from .hermitian import identity_suite

    trials = args.trials if args.trials is not None else 200
    report = identity_suite(args.seed, n=args.dim, trials=trials, tol=_positive_tol(args, 1e-8))
    return 0, report.serialize()


def _cmd_selftest(args):
    from .selftest import run_all

    results, ok = run_all(seed=args.seed, trials=args.trials)
    doc = {"seed": args.seed, "passed": ok, "criteria": [r.serialize() for r in results]}
    return (0 if ok else 1), doc


_FLAGS = {
    "-f": dict(dest="function", required=True),
    "-x": dict(dest="x", required=True),
    "-y": dict(dest="y", required=True),
    "--normalize": dict(action="store_true", help="rescale input masses to total 1 before use"),
    "--seed": dict(type=_at_least(0, 2**64 - 1), default=1, help="PRNG seed (u64)"),
    "--trials": dict(type=_at_least(1), default=None),
    "--tol": dict(type=float, default=None),
    "--witness": dict(action="store_true"),
    "--snap": dict(type=_at_least(1), default=None, help="snap eigenvalues to denominators up to N"),
    "--dim": dict(type=_at_least(1), default=6),
}

# each subcommand's handler and the flags it reads, besides --json-indent
_COMMANDS = {
    "rearrange": (_cmd_rearrange, ("-f", "--normalize")),
    "majorise": (_cmd_majorise, ("-x", "-y", "--normalize")),
    "submajorise": (_cmd_submajorise, ("-x", "-y", "--normalize")),
    "extreme": (_cmd_extreme, ("-x", "-y", "--normalize", "--witness")),
    "witness": (_cmd_witness, ("-x", "-y", "--normalize")),
    "oracle": (_cmd_oracle, ("-x", "-y", "--normalize")),
    "enumerate": (_cmd_enumerate, ("-y", "--normalize")),
    "sample": (_cmd_sample, ("-y", "--normalize", "--seed")),
    "matrix-eig": (_cmd_matrix_eig, ("-f", "--tol", "--snap")),
    "matrix-majorise": (_cmd_matrix_majorise, ("-x", "-y", "--tol")),
    "matrix-extreme": (_cmd_matrix_extreme, ("-x", "-y", "--tol")),
    "birkhoff": (_cmd_birkhoff, ("-f", "--tol")),
    "ttransform": (_cmd_ttransform, ("-x", "-y")),
    "suite": (_cmd_suite, ("--seed", "--trials", "--tol", "--dim")),
    "selftest": (_cmd_selftest, ("--seed", "--trials")),
}


def build_parser(argv=()) -> _Parser:
    """The parser of every subcommand, or only of the one that ``argv`` names first: a call
    runs one command, and the other subparsers took 2-3 ms of every cold call to build."""
    parser = _Parser(prog="majorbit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (handler, flags) in _COMMANDS.items():
        if named not in (None, name):
            continue
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        # a bounded indent: json.dumps builds the indentation string eagerly
        p.add_argument("--json-indent", type=int, choices=range(17), default=None, metavar="0..16")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    indent = None
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        indent = args.json_indent
        code, doc = args.handler(args)
    except MajorbitError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}, indent=indent))
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - surface as invariant violation
        print(json.dumps({"error": "InternalError", "detail": str(exc)}, indent=indent))
        return InternalError.exit_code
    print(json.dumps(doc, indent=indent))
    return code


def entry() -> None:
    sys.exit(main())
