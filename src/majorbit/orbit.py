"""Independent ground truth for the orbit, on every finite measure space.

On a space of n atoms with weights w_i, the orbit of y is the polytope cut
out by one inequality per nonempty atom subset S,

    sum_{i in S} w_i x_i  <=  g(w(S)),   g(s) = integral of y's scale over [0, s],

together with equality at the full set. x is a vertex iff the normals of
the constraints tight at x span n dimensions; scaling column i by
w_i > 0 is invertible, so their 0/1 indicators span as well.

The tight sets are read off y's supporting lines. g is concave and
piecewise linear, g(s) = min_k a_k + b_k s over y's steps k, with b_k the
step's value and a_k = integral of (y - b_k)^+. For x in the orbit, put

    c_k(S) = a_k + sum_{i in S} w_i (b_k - x_i)  >=  g(w(S)) - sum_{i in S} w_i x_i  >=  0.

S is tight exactly when c_k(S) = 0 for some k. Each term w_i (b_k - x_i)
is negative for i in L_k = {x > b_k}, zero on {x = b_k} and positive
elsewhere, so c_k is least exactly on the sets between L_k and
U_k = {x >= b_k}. Line k is therefore tight, c_k(L_k) = 0, or has no
tight set, and a tight line's tight sets are all the sets between L_k and
U_k. Their indicators span the same space as 1_{L_k} and e_i for each i
with x_i = b_k. Collect these e_i over all tight lines into E. The L_k
are nested, and distinct nonempty nested sets are independent, so the
rank is |E| plus the number of distinct nonempty sets L_k \\ E. The lowest
line is always tight (x >= b_K and c_K(all) = g(1) - integral of x = 0),
and its sets include the full set. The same lines decide membership: with
equal integrals, x is majorised by y iff h(t) = integral (y - t)^+ -
integral (x - t)^+ >= 0 for all t, and h is least at some b_k (it is
concave between values of y, increasing above b_1 and decreasing below
b_K), where it is c_k(L_k). One merge of x's levels with y's lines checks
these and finds every tight line, so the test is linear after the sort.

Diffuse mass enters through the halved-level model: keep every atom and
split the diffuse mass m of each level of x into two carriers of mass m/2
at the level's value; x is extreme in the orbit of y exactly when the
model's vector is a vertex of the model's polytope (y is read only
through its scale).

- Extreme implies vertex. The functions constant on the model's cells
  form a convex subset of the orbit that contains x, and it is affinely
  isomorphic to the model's polytope. An extreme point of the orbit stays
  extreme in any convex subset that contains it.
- Not extreme implies not a vertex. By the criterion of
  ``extremality``, some level of x fails both of its conditions. If that
  level holds no diffuse mass, the direction of the witness that
  ``witness`` builds for it is constant on each level of x but one, and
  on that one constant on each atom, hence constant on the model's cells.
  Otherwise the level is not flat: the slack s, the
  integral of y's scale minus x's, is concave on the level, not constant
  there, and at least 0 at its ends. So s is positive inside and lies
  above the tent through its values at the level's ends and midpoint.
  Put +delta on one half of the level's diffuse mass and -delta on the
  other. For small delta no value crosses a neighbouring level, and after
  rearranging, either sign adds to x's integral a trapezoid over the
  level, with slopes +-delta and height delta * m / 2, which fits under
  that tent. The direction is constant on the model's cells, so halving
  loses no witness direction.

This module contains no floating point at all and shares no logic with
the per-interval criterion it cross-checks.
"""

from itertools import accumulate, permutations

from .errors import InternalError, NotAtomic, NotInOrbit, SchemaError, SizeLimit, UnknownAtomError
from .measure import ZERO, SimpleFunction
from .prng import SplitMix64
from .scales import StepScale, _on_common, cumulative, rearrange

MAX_ENUMERATE_ATOMS = 6


def oracle_extreme(x: SimpleFunction, y: SimpleFunction) -> bool:
    """Vertex test: x is extreme iff the indicators of its tight subset
    constraints span, on x's space or its halved-level model. Exact, and
    independent of the per-interval criterion."""
    return _vertex(x, rearrange(y))


def _vertex(x: SimpleFunction, y_scale: StepScale) -> bool:
    """The rank count of the module docstring, in the one merge that also checks membership
    (NotInOrbit if x is not majorised by y): masses over D, values over V, each c_k over D*V."""
    den, vden, x_ints, _ = _on_common(rearrange(x), y_scale)
    kb = vden // y_scale._profile[1]
    ka = den // y_scale._profile[0] * kb
    n_atoms = len(x.space.atom_ids)
    sizes = []  # model carriers per level: its atoms, and two halves of any diffuse mass
    for _, members, _ in x._table:
        atoms = sum(i < n_atoms for i in members)
        sizes.append(atoms + 2 * (atoms < len(members)))
    # the levels at some tight line's b_k (they make up E), and each tight
    # line's cut, the number of levels in L_k
    at_lines, cuts = set(), set()
    j = mass = integral = 0
    for a, b in y_scale._lines:
        a, b = a * ka, b * kb
        while j < len(x_ints) and x_ints[j][0] > b:
            mass += x_ints[j][1]
            integral += x_ints[j][0] * x_ints[j][1]
            j += 1
        c = a + b * mass - integral  # c_k(L_k)
        if c < 0:
            raise NotInOrbit("x is not majorised by y")
        if c == 0:
            cuts.add(j)
            if j < len(x_ints) and x_ints[j][0] == b:
                at_lines.add(j)
    if integral + sum(value * length for value, length in x_ints[j:]) != a + b * den:
        raise NotInOrbit("x is not majorised by y")
    # free[p]: the levels above cut p that lie at no tight b_k, i.e. L_k \ E
    free = list(accumulate((j not in at_lines for j in range(len(sizes))), initial=0))
    rank = sum(sizes[j] for j in at_lines) + len({free[p] for p in cuts} - {0})
    return rank == sum(sizes)


def enumerate_extreme(y: SimpleFunction) -> list[SimpleFunction]:
    """All extreme points of the orbit of y on its (atomic) space.

    With g = cumulative_y, the orbit is the base polytope of the submodular
    S -> g(w(S)), whose vertices are its greedy vectors (Edmonds 1970): for
    each ordering of the atoms, the atom placed after the set S takes the
    average of y's scale over the span it covers, (g(w(S) + w) - g(w(S))) / w.
    The distinct greedy vectors are returned by atom values in space order;
    each is checked to lie in the orbit and to pass the vertex test.
    """
    if not y.space.purely_atomic:
        raise NotAtomic("enumeration requires a purely atomic space")
    n = len(y.space.atoms)
    if n > MAX_ENUMERATE_ATOMS:
        raise SizeLimit(f"{n} atoms exceed the enumeration limit")
    y_scale = rearrange(y)
    masses = [ZERO]  # masses[S] = w(S) for S a bit mask
    for _, weight in y.space.atoms:
        masses += [mass + weight for mass in masses]
    g = [cumulative(y_scale, mass) for mass in masses]
    # the value of atom i when it is placed after the atoms of the mask
    share = {(mask, i): (g[mask | 1 << i] - g[mask]) / masses[1 << i]
             for mask in range(1 << n) for i in range(n) if not mask >> i & 1}
    points = set()
    for order in permutations(range(n)):
        values, mask = [ZERO] * n, 0
        for i in order:
            values[i] = share[mask, i]
            mask |= 1 << i
        points.add(tuple(values))
    results = [SimpleFunction(y.space, dict(zip(y.space.atom_ids, p))) for p in sorted(points)]
    for candidate in results:
        try:
            vertex = _vertex(candidate, y_scale)
        except NotInOrbit:
            raise InternalError("a greedy vector lies outside the orbit") from None
        if not vertex:
            raise InternalError("a greedy vector failed the vertex test")
    return results


def partial_average(f: SimpleFunction, atom_ids=(), piece_indices=()) -> SimpleFunction:
    """Replace the values on the selected carriers by their weighted mean.

    This is one partial-averaging step (a doubly stochastic operation), so
    the output is always majorised by the input. Each carrier may be
    selected once: a repeated one would be weighted twice in the mean.
    """
    atom_ids = list(atom_ids)
    piece_indices = list(piece_indices)
    chosen_atoms, chosen = set(atom_ids), set(piece_indices)
    unknown = chosen_atoms - set(f.space.atom_ids)
    if unknown:
        raise UnknownAtomError(f"unknown atoms {sorted(unknown)}")
    if any(not 0 <= i < len(f.diffuse_pieces) for i in piece_indices):
        raise SchemaError("piece index out of range")
    if len(chosen_atoms) < len(atom_ids) or len(chosen) < len(piece_indices):
        raise SchemaError("an atom id or piece index is selected more than once")
    mass = sum((f.space.weight(a) for a in atom_ids), ZERO)
    mass += sum((f.diffuse_pieces[i][1] for i in piece_indices), ZERO)
    if mass == 0:
        return f
    total = sum((f.space.weight(a) * f.atom_values[a] for a in atom_ids), ZERO)
    total += sum(
        (f.diffuse_pieces[i][0] * f.diffuse_pieces[i][1] for i in piece_indices), ZERO
    )
    mean = total / mass
    values = {aid: mean if aid in chosen_atoms else v for aid, v in f.atom_values.items()}
    pieces = tuple((mean if i in chosen else v, m) for i, (v, m) in enumerate(f.diffuse_pieces))
    return SimpleFunction(f.space, values, pieces)


def sample_orbit(y: SimpleFunction, seed: int, rounds: int | None = None) -> SimpleFunction:
    """Pseudo-random orbit element: a seeded sequence of partial-averaging
    steps over random sub-collections of carriers (splitmix64 stream; each
    carrier joins a round with probability 1/2; 1..4 rounds unless given).
    """
    rng = SplitMix64(seed)
    if rounds is None:
        rounds = rng.randint(1, 4)
    current = y
    for _ in range(rounds):
        chosen_atoms = [aid for aid in current.space.atom_ids if rng.next_u64() & 1]
        chosen_pieces = [
            i for i in range(len(current.diffuse_pieces)) if rng.next_u64() & 1
        ]
        if len(chosen_atoms) + len(chosen_pieces) >= 2:
            current = partial_average(current, chosen_atoms, chosen_pieces)
    return current
