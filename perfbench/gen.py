"""Seeded input generator for the benchmark.

It imports nothing from ``majorbit``: it has its own PRNG, its own
partial averaging and its own extreme-point constructions, so a change to
``majorbit.prng`` or ``majorbit.orbit.sample_orbit`` cannot change the
inputs. Every request carries its documents as JSON text, which the
program parses inside the timed request.

Each workload draws from a fixed pool of instances (instance ``i`` depends
only on the workload and ``i``); ``--seed`` fixes the order in which a run
visits the pool. A fixed pool is what lets the golden digests in
``golden.json`` cover every output a run can produce.

    python3 perfbench/gen.py --workload exact-small --seed 3 > requests.json
"""

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

WORKLOADS = ("exact-small", "exact-large", "matrix", "cli-cold")

# Small enough that a 20 s run makes several passes even when the machine
# is slow (latency is the fastest pass of each request), large enough for
# ten requests beyond the tail percentile.
POOL_SIZES = {"exact-small": 960, "exact-large": 48, "matrix": 144, "cli-cold": 30}

MATRIX_N = 12
CLI_MATRIX_N = 8
LARGE_ATOMS = 36
LARGE_PIECES = 12
LARGE_GRID = 2**12

MATRIX_KINDS = (
    "eig_scale",
    "matrix_majorise",
    "check_extreme_diag",
    "birkhoff_decompose",
    "t_transform_chain",
    "identity_trial",
)

# cli-cold cycles through ten requests, one of them malformed (10 %).
CLI_CYCLE = (
    "rearrange", "extreme", "matrix-eig",
    "rearrange", "extreme", "matrix-eig",
    "rearrange", "extreme", "matrix-eig",
    "malformed",
)

_MASK = (1 << 64) - 1


class Rng:
    """xorshift64* stream; the state is seeded through SHA-256 of the
    labels, so streams for different (workload, index) never overlap in
    practice."""

    def __init__(self, *labels):
        digest = hashlib.sha256(repr(labels).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little") or 1
        self._spare = None

    def next(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def below(self, n: int) -> int:
        return self.next() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def random(self) -> float:
        return (self.next() >> 11) * 2.0**-53

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def gauss(self) -> float:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        u1 = self.random() or 2.0**-53
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


# ---------------------------------------------------------------------------
# exact instances: atoms with weights and values, plus diffuse pieces
# ---------------------------------------------------------------------------

def ratstr(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def grid_masses(rng: Rng, count: int, denom: int) -> list[Fraction]:
    """``count`` positive masses summing to 1, all multiples of 1/denom."""
    cuts: set[int] = set()
    while len(cuts) < count - 1:
        cuts.add(rng.randint(1, denom - 1))
    bounds = [0] + sorted(cuts) + [denom]
    return [Fraction(b - a, denom) for a, b in zip(bounds, bounds[1:])]


class Instance:
    """y on a space of atoms and diffuse pieces, in exact rationals."""

    def __init__(self, atoms, atom_values, pieces):
        self.atoms = atoms  # [(id, weight)]
        self.atom_values = atom_values  # {id: value}
        self.pieces = pieces  # [(value, mass)]

    @property
    def diffuse_mass(self) -> Fraction:
        return sum((m for _, m in self.pieces), Fraction(0))

    def carriers(self):
        out = [(self.atom_values[a], w) for a, w in self.atoms]
        out.extend(self.pieces)
        return out

    def space_doc(self) -> dict:
        return {
            "atoms": [{"id": a, "weight": ratstr(w)} for a, w in self.atoms],
            "diffuse_mass": ratstr(self.diffuse_mass),
        }

    def function_doc(self, atom_values, pieces) -> dict:
        return {
            "space": self.space_doc(),
            "atoms": {a: ratstr(atom_values[a]) for a, _ in self.atoms},
            "diffuse": [{"value": ratstr(v), "mass": ratstr(m)} for v, m in pieces],
        }


def make_instance(rng: Rng, n_atoms: int, n_pieces: int, denom: int, lo: int, hi: int) -> Instance:
    masses = grid_masses(rng, n_atoms + n_pieces, denom)
    atoms = [(f"a{i}", masses[i]) for i in range(n_atoms)]
    values = {a: Fraction(rng.randint(lo, hi)) for a, _ in atoms}
    pieces = [(Fraction(rng.randint(lo, hi)), masses[n_atoms + j]) for j in range(n_pieces)]
    return Instance(atoms, values, pieces)


def scale_of(carriers) -> list[tuple[Fraction, Fraction]]:
    """Decreasing rearrangement as merged (value, length) steps."""
    steps: list[list[Fraction]] = []
    for value, mass in sorted(carriers, key=lambda c: c[0], reverse=True):
        if steps and steps[-1][0] == value:
            steps[-1][1] += mass
        else:
            steps.append([value, mass])
    return [(v, m) for v, m in steps]


def breakpoints(steps) -> set[Fraction]:
    out, acc = set(), Fraction(0)
    for _, length in steps:
        acc += length
        out.add(acc)
    return out


def scale_segment(steps, start: Fraction, end: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The (value, length) profile of a scale on [start, end)."""
    out, acc = [], Fraction(0)
    for value, length in steps:
        lo, hi = max(acc, start), min(acc + length, end)
        if lo < hi:
            out.append((value, hi - lo))
        acc += length
    return out


def partial_average(inst: Instance, rng: Rng, rounds: int, group):
    """The benchmark's own partial averaging: each round replaces the values
    of a random group of carriers by their weighted mean (a doubly
    stochastic step, so the result stays in the orbit). ``group`` draws the
    carrier indices of one round."""
    n_atoms = len(inst.atoms)
    values = [inst.atom_values[a] for a, _ in inst.atoms] + [v for v, _ in inst.pieces]
    masses = [w for _, w in inst.atoms] + [m for _, m in inst.pieces]
    for _ in range(rounds):
        chosen = group(len(values))
        if len(chosen) < 2:
            continue
        mass = sum((masses[i] for i in chosen), Fraction(0))
        mean = sum((values[i] * masses[i] for i in chosen), Fraction(0)) / mass
        for i in chosen:
            values[i] = mean
    atom_values = {a: values[i] for i, (a, _) in enumerate(inst.atoms)}
    pieces = [(values[n_atoms + j], m) for j, (_, m) in enumerate(inst.pieces)]
    return atom_values, pieces


def half_join(rng: Rng):
    return lambda n: [i for i in range(n) if rng.next() & 1]


def small_groups(rng: Rng):
    def draw(n):
        picks = list(range(n))
        rng.shuffle(picks)
        return picks[: rng.randint(2, 6)]
    return draw


def permuted_split(inst: Instance, rng: Rng):
    """Condition 1 everywhere: same atoms, diffuse pieces permuted and some
    split in two; the rearrangement equals y's."""
    pieces = []
    for value, mass in inst.pieces:
        if rng.next() & 1:
            first = mass * Fraction(rng.randint(1, 3), 4)
            pieces.extend([(value, first), (value, mass - first)])
        else:
            pieces.append((value, mass))
    rng.shuffle(pieces)
    return dict(inst.atom_values), pieces


def conditional_expectation(inst: Instance, rng: Rng):
    """Extreme by construction: cut [0,1) into one window per atom (its own
    weight, atoms in random order) and diffuse segments, interleaved at
    random. An atom takes the mean of y's scale over its window (condition 2
    where the scale is not constant there); the diffuse part copies y's
    scale on its segments (condition 1). This generalises truncating a
    density and loading the cut tail onto an atom."""
    steps = scale_of(inst.carriers())
    order = [a for a, _ in inst.atoms]
    rng.shuffle(order)
    weight = dict(inst.atoms)
    diffuse = inst.diffuse_mass
    segments = []
    if diffuse:
        parts = rng.randint(1, len(order) + 1)
        cuts = sorted(Fraction(rng.randint(0, 64), 64) for _ in range(parts - 1))
        bounds = [Fraction(0)] + cuts + [Fraction(1)]
        segments = [diffuse * (b - a) for a, b in zip(bounds, bounds[1:])]
    slots = [("atom", a) for a in order] + [("diffuse", s) for s in segments if s]
    rng.shuffle(slots)
    cursor = Fraction(0)
    atom_values, pieces = {}, []
    for tag, item in slots:
        if tag == "atom":
            end = cursor + weight[item]
            seg = scale_segment(steps, cursor, end)
            atom_values[item] = sum((v * l for v, l in seg), Fraction(0)) / weight[item]
        else:
            end = cursor + item
            pieces.extend(scale_segment(steps, cursor, end))
        cursor = end
    return atom_values, pieces


def exact_request(kind: str, inst: Instance, x, extra=None) -> dict:
    atom_values, pieces = x
    x_doc = inst.function_doc(atom_values, pieces)
    y_doc = inst.function_doc(inst.atom_values, inst.pieces)
    x_steps = scale_of([(atom_values[a], w) for a, w in inst.atoms] + pieces)
    y_steps = scale_of(inst.carriers())
    props = {
        "carriers": len(inst.atoms) + len(pieces),
        "breakpoints": len(breakpoints(x_steps) | breakpoints(y_steps)),
        "atoms": len(inst.atoms),
        "atomic": not inst.pieces,
    }
    req = {"kind": kind, "x": json.dumps(x_doc), "y": json.dumps(y_doc), "props": props}
    if extra:
        req.update(extra)
    return req


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def small_instance(rng: Rng):
    """Shapes and proportions of acceptance criteria 1, 3 and 4: of 2500
    instances, 1333 atomic, 833 atomless and 333 mixed."""
    draw = rng.below(2500)
    if draw < 1333:
        inst = make_instance(rng, rng.randint(2, 6), 0, 2 ** rng.randint(3, 6), -4, 8)
        x = partial_average(inst, rng, rng.randint(1, 4), half_join(rng)) if rng.next() & 1 \
            else conditional_expectation(inst, rng)
        return "atomic", inst, x
    if draw < 2166:
        inst = make_instance(rng, 0, rng.randint(2, 5), 2 ** rng.randint(3, 6), -4, 8)
        x = partial_average(inst, rng, rng.randint(1, 4), half_join(rng)) if rng.next() & 1 \
            else permuted_split(inst, rng)
        return "atomless", inst, x
    inst = make_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 2 ** rng.randint(3, 6), -4, 8)
    return "mixed", inst, partial_average(inst, rng, rng.randint(1, 4), half_join(rng))


def pool_exact_small(index: int) -> list[dict]:
    rng = Rng("exact-small", index)
    shape, inst, x = small_instance(rng)
    reqs = [exact_request("decide", inst, x, {"shape": shape})]
    if shape == "atomic":
        reqs.append(exact_request("oracle", inst, x, {"shape": shape}))
    return reqs


def pool_exact_large(index: int) -> list[dict]:
    """48 carriers (36 atoms + 12 diffuse pieces) on a 2^12 grid. Three in
    four x come from partial averaging; one in eight keeps y's pieces
    permuted and split (condition 1), one in eight is a conditional
    expectation over atom windows (condition 2)."""
    rng = Rng("exact-large", index)
    inst = make_instance(rng, LARGE_ATOMS, LARGE_PIECES, LARGE_GRID, -16, 16)
    slot = index % 8
    if slot == 0:
        x, origin = permuted_split(inst, rng), "condition1"
    elif slot == 4:
        x, origin = conditional_expectation(inst, rng), "condition2"
    else:
        x, origin = partial_average(inst, rng, rng.randint(2, 6), small_groups(rng)), "averaged"
    return [exact_request("decide", inst, x, {"origin": origin})]


def random_unitary(rng: Rng, n: int) -> list[list[complex]]:
    """Gram-Schmidt on a complex Gaussian matrix; columns are orthonormal."""
    cols = []
    for _ in range(n):
        v = [complex(rng.gauss(), rng.gauss()) for _ in range(n)]
        for _ in range(2):  # re-orthogonalise once for accuracy
            for c in cols:
                dot = sum(ci.conjugate() * vi for ci, vi in zip(c, v))
                v = [vi - dot * ci for vi, ci in zip(v, c)]
        norm = math.sqrt(sum(abs(vi) ** 2 for vi in v))
        cols.append([vi / norm for vi in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def conjugate_diag(u, diag) -> list[list[complex]]:
    """U diag(d) U*, symmetrised so the document is exactly Hermitian."""
    n = len(diag)
    a = [
        [sum(u[i][k] * diag[k] * u[j][k].conjugate() for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        a[i][i] = complex(a[i][i].real, 0.0)
        for j in range(i + 1, n):
            a[j][i] = a[i][j].conjugate()
    return a


def matrix_doc(a) -> dict:
    return {
        "n": len(a),
        "re": [[z.real for z in row] for row in a],
        "im": [[z.imag for z in row] for row in a],
    }


def int_spectrum(rng: Rng, n: int) -> list[int]:
    return sorted((rng.randint(-4, 8) for _ in range(n)), reverse=True)


def doubly_stochastic(rng: Rng, n: int) -> list[list[float]]:
    terms = rng.randint(2, n)
    weights = [rng.random() + 1e-3 for _ in range(terms)]
    total = sum(weights)
    out = [[0.0] * n for _ in range(n)]
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        for row, col in enumerate(perm):
            out[row][col] += w / total
    return out


def equal_weight_average(rng: Rng, values: list[int]) -> list[Fraction]:
    """Partial averaging on n equal-weight atoms."""
    vals = [Fraction(v) for v in values]
    for _ in range(rng.randint(1, 3)):
        chosen = [i for i in range(len(vals)) if rng.next() & 1]
        if len(chosen) >= 2:
            mean = sum((vals[i] for i in chosen), Fraction(0)) / len(chosen)
            for i in chosen:
                vals[i] = mean
    return vals


def pool_matrix(index: int) -> list[dict]:
    rng = Rng("matrix", index)
    kind = MATRIX_KINDS[index % len(MATRIX_KINDS)]
    n = MATRIX_N
    req = {"kind": kind, "n": n}
    if kind in ("eig_scale", "matrix_majorise", "check_extreme_diag"):
        spectrum = int_spectrum(rng, n)
        y = conjugate_diag(random_unitary(rng, n), spectrum)
        req["y"] = json.dumps(matrix_doc(y))
        req["spectrum"] = spectrum
    if kind == "matrix_majorise":
        averaged = equal_weight_average(rng, req["spectrum"])
        x = conjugate_diag(random_unitary(rng, n), [float(v) for v in averaged])
        req["x"] = json.dumps(matrix_doc(x))
    elif kind == "check_extreme_diag":
        if rng.next() & 1:
            values = [Fraction(v) for v in req["spectrum"]]
            rng.shuffle(values)
        else:
            values = equal_weight_average(rng, req["spectrum"])
            rng.shuffle(values)
        x = [[complex(float(values[i]) if i == j else 0.0) for j in range(n)] for i in range(n)]
        req["x"] = json.dumps(matrix_doc(x))
        req["expect_extreme"] = sorted(values) == sorted(Fraction(v) for v in req["spectrum"])
    elif kind == "birkhoff_decompose":
        req["s"] = json.dumps({"n": n, "re": doubly_stochastic(rng, n)})
    elif kind == "t_transform_chain":
        y_vec = [float(rng.randint(-4, 8)) for _ in range(n)]
        mix = doubly_stochastic(rng, n)
        x_vec = [sum(mix[i][j] * y_vec[j] for j in range(n)) for i in range(n)]
        req["x"] = json.dumps(x_vec)
        req["y"] = json.dumps(y_vec)
    elif kind == "identity_trial":
        req["seed"] = rng.next()
    return [req]


def write_cli_files(req: dict, directory) -> list[str]:
    """Write a cli-cold request's documents into ``directory`` and return
    the argument list for ``python -m majorbit``."""
    argv = list(req["argv"])
    for name, text in sorted(req["files"].items()):
        path = os.path.join(directory, f"{req['tag']}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [path if a == f"@{name}" else a for a in argv]
    return argv


def pool_cli_cold(index: int) -> list[dict]:
    rng = Rng("cli-cold", index)
    kind = CLI_CYCLE[index % len(CLI_CYCLE)]
    tag = f"c{index}"
    if kind in ("rearrange", "extreme"):
        shape, inst, x = small_instance(rng)
        req = exact_request(kind, inst, x, {"shape": shape})
        if kind == "rearrange":
            files = {"f": req["x"]}
            argv = ["rearrange", "-f", "@f"]
        else:
            files = {"x": req["x"], "y": req["y"]}
            argv = ["extreme", "-x", "@x", "-y", "@y", "--witness"]
        return [{"kind": kind, "class": "exact", "tag": tag, "files": files,
                 "argv": argv, "expect_exit": 0, "props": req["props"]}]
    if kind == "matrix-eig":
        spectrum = int_spectrum(rng, CLI_MATRIX_N)
        a = conjugate_diag(random_unitary(rng, CLI_MATRIX_N), spectrum)
        return [{"kind": kind, "class": "matrix", "tag": tag,
                 "files": {"f": json.dumps(matrix_doc(a))},
                 "argv": ["matrix-eig", "-f", "@f"], "expect_exit": 0,
                 "spectrum": spectrum, "n": CLI_MATRIX_N}]
    # malformed inputs: the correct exit code for bad input is 2
    if (index // len(CLI_CYCLE)) % 2 == 0:
        _, inst, x = small_instance(rng)
        doc = inst.function_doc(*x)
        if not doc["space"]["atoms"]:
            doc["space"]["atoms"] = [{"id": "a0"}]
            doc["atoms"] = {"a0": "1"}
        else:
            del doc["space"]["atoms"][0]["weight"]
        return [{"kind": "malformed-normalize", "class": "exact", "tag": tag,
                 "files": {"f": json.dumps(doc)},
                 "argv": ["rearrange", "--normalize", "-f", "@f"], "expect_exit": 2}]
    n = 4
    a = conjugate_diag(random_unitary(rng, n), int_spectrum(rng, n))
    doc = matrix_doc(a)
    doc["re"][0][1] = doc["re"][1][0] = float("nan")
    return [{"kind": "malformed-nan", "class": "matrix", "tag": tag,
             "files": {"f": json.dumps(doc)},
             "argv": ["matrix-eig", "-f", "@f"], "expect_exit": 2}]


POOLS = {
    "exact-small": pool_exact_small,
    "exact-large": pool_exact_large,
    "matrix": pool_matrix,
    "cli-cold": pool_cli_cold,
}


def pool(workload: str) -> list[list[dict]]:
    """Every instance of a workload's pool; an instance is one or more
    requests that run back to back (decide, then oracle)."""
    make = POOLS[workload]
    out = []
    for index in range(POOL_SIZES[workload]):
        reqs = make(index)
        for req in reqs:
            req["pool"] = index
        out.append(reqs)
    return out


def request_key(req: dict) -> str:
    """Content hash of a request, the key of its golden output digest."""
    if "files" in req:
        body = json.dumps([req["argv"], req["files"]], sort_keys=True)
    else:
        body = json.dumps([req["kind"], req.get("x"), req.get("y")])
    return hashlib.sha256(body.encode()).hexdigest()[:32]


def generate(workload: str, seed: int) -> dict:
    """The run's inputs. ``schedule`` is the pool in a seed-chosen order;
    the worker cycles through it until the run time is used up.
    ``warmup`` is the first well-formed request of each kind in pool order,
    the same for every seed, so that set-up time does not depend on it."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    instances = pool(workload)
    for reqs in instances:
        for req in reqs:
            req["key"] = request_key(req)
    warmup: dict[str, dict] = {}
    for reqs in instances:
        for req in reqs:
            if req.get("expect_exit", 0) == 0:
                warmup.setdefault(req["kind"], req)
    order = list(range(len(instances)))
    Rng("schedule", workload, seed).shuffle(order)
    schedule = [req for i in order for req in instances[i]]
    return {"schedule": schedule, "warmup": list(warmup.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
