"""SplitMix64.normals against the scalar Box-Muller it replaced
(``reference_core.ScalarGauss``): the same floats, the same spare deviate
and the same state afterwards, including the redraw of a u1 of 0."""

import pytest

from majorbit.prng import _GAMMA, _MASK, _MIX1, _MIX2, SplitMix64

from reference_core import ScalarGauss

COUNTS = [*range(10), 288]


def same_state(fast: SplitMix64, slow: SplitMix64) -> bool:
    if fast._spare_gauss != slow._spare_gauss:
        return False
    return fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 0x123456789ABCDEF])
@pytest.mark.parametrize("count", COUNTS)
def test_normals_match_scalar_draws(seed, count):
    fast, slow = SplitMix64(seed), ScalarGauss(seed)
    assert fast.normals(count) == [slow.gauss() for _ in range(count)]
    assert same_state(fast, slow)


def test_spare_and_other_draws_interleave():
    fast, slow = SplitMix64(99), ScalarGauss(99)
    for step in range(60):
        count = COUNTS[step % len(COUNTS)]
        assert fast.normals(count) == [slow.gauss() for _ in range(count)]
        assert fast._spare_gauss == slow._spare_gauss
        assert fast.gauss() == slow.gauss()
        if step % 3 == 0:
            assert fast.next_u64() == slow.next_u64()
        elif step % 3 == 1:
            assert fast.randint(-5, 5 + step) == slow.randint(-5, 5 + step)
        else:
            a, b = list(range(step)), list(range(step))
            fast.shuffle(a)
            slow.shuffle(b)
            assert a == b
            assert fast.random() == slow.random()
    assert same_state(fast, slow)


def unxorshift(value: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == value."""
    x = value
    for _ in range(64 // shift + 1):
        x = value ^ (x >> shift)
    return x


def state_before(position: int, output: int) -> int:
    """A seed whose draw number ``position`` (from 0) returns ``output``:
    splitmix64's mix is a bijection, inverted step by step."""
    z = unxorshift(output, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK
    z = unxorshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK
    return (unxorshift(z, 30) - (position + 1) * _GAMMA) & _MASK


def test_inverted_mix_reaches_the_output():
    rng = SplitMix64(state_before(3, 0xDEADBEEF))
    assert [rng.next_u64() for _ in range(4)][3] == 0xDEADBEEF


@pytest.mark.parametrize("position", range(8))
@pytest.mark.parametrize("lead", [0, 1, 2])
def test_a_zero_uniform_is_redrawn(position, lead):
    """Draw ``position`` is a uniform 0 (its top 53 bits are zero). Where
    it falls on a u1 the scalar loop draws u1 again, which shifts every
    later pair by one draw; on a u2 it stands. ``lead`` gauss() calls come
    first, so the zero sits at a different place in normals' block."""
    seed = state_before(position, 0x5A5)
    probe = SplitMix64(seed)
    assert [probe.random() for _ in range(position + 1)][position] == 0.0
    for count in (1, 2, 7, 288):
        fast, slow = SplitMix64(seed), ScalarGauss(seed)
        assert [fast.gauss() for _ in range(lead)] == [slow.gauss() for _ in range(lead)]
        assert fast.normals(count) == [slow.gauss() for _ in range(count)]
        assert same_state(fast, slow)


def test_gauss_is_one_normal():
    one, block = SplitMix64(5), SplitMix64(5)
    assert [one.gauss() for _ in range(9)] == block.normals(9)
    assert same_state(one, block)
