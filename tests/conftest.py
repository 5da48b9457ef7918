from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from majorbit.measure import MeasureSpace, SimpleFunction

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")


def frac(value) -> Fraction:
    return Fraction(value)


def mkspace(weights, diffuse="0", ids=None):
    weights = [Fraction(w) for w in weights]
    ids = ids or [f"a{i}" for i in range(len(weights))]
    return MeasureSpace(tuple(zip(ids, weights)), Fraction(diffuse))


def mkatomic(values, weights=None, ids=None):
    n = len(values)
    weights = weights or [Fraction(1, n)] * n
    space = mkspace(weights, ids=ids)
    return SimpleFunction(
        space, {aid: Fraction(v) for aid, v in zip(space.atom_ids, values)}
    )


def mkdiffuse(pieces):
    pieces = tuple((Fraction(v), Fraction(m)) for v, m in pieces)
    space = MeasureSpace((), sum((m for _, m in pieces), Fraction(0)))
    return SimpleFunction(space, {}, pieces)


small_values = st.fractions(min_value=-5, max_value=8, max_denominator=12)


@st.composite
def simple_functions(draw, max_atoms=3, max_pieces=3, values=small_values, min_atoms=0):
    n = draw(st.integers(min_value=min_atoms, max_value=max_atoms))
    k = draw(st.integers(min_value=0 if n else 1, max_value=max_pieces))
    parts = [draw(st.integers(min_value=1, max_value=9)) for _ in range(n + k)]
    total = sum(parts)
    weights = [Fraction(p, total) for p in parts]
    space = MeasureSpace(
        tuple((f"a{i}", weights[i]) for i in range(n)),
        sum(weights[n:], Fraction(0)),
    )
    atom_values = {f"a{i}": draw(values) for i in range(n)}
    pieces = tuple((draw(values), weights[n + j]) for j in range(k))
    return SimpleFunction(space, atom_values, pieces)


@st.composite
def function_pairs(draw, max_atoms=3, max_pieces=3, values=small_values):
    """Two functions on the same space."""
    f = draw(simple_functions(max_atoms=max_atoms, max_pieces=max_pieces, values=values))
    atom_values = {aid: draw(values) for aid in f.space.atom_ids}
    pieces = tuple((draw(values), m) for _, m in f.diffuse_pieces)
    return f, SimpleFunction(f.space, atom_values, pieces)
