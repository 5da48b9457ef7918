"""Named deterministic PRNG used for every seeded computation.

splitmix64: 64-bit state, one addition + two xorshift-multiplies per draw.
Chosen over ``random.Random`` so that streams are bit-identical across
Python versions and platforms. All library randomness flows through this
class from a single seed.
"""

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_gauss = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (modulo draw; bias is
        negligible for the tiny ranges used here and determinism matters
        more than perfect uniformity)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def gauss(self) -> float:
        """Standard normal via Box-Muller, caching the spare deviate."""
        return self.normals(1)[0]

    def normals(self, count: int) -> list[float]:
        """The next ``count`` standard normals, the same floats as ``count``
        gauss() calls. After k draws the state is s0 + k*gamma mod 2^64, so
        a block of draws is hashed at once in numpy uint64; Box-Muller then
        runs per pair on Python floats, with math's log, cos and sin
        (numpy's vectorised ones may round differently). A u1 of 0 ends the
        block there and the next pair starts at the draw after it; an odd
        count keeps the last sin as the spare."""
        import numpy as np

        out = [] if self._spare_gauss is None else [self._spare_gauss]
        self._spare_gauss = None
        while len(out) < count:
            drawn = 2 * ((count - len(out) + 1) // 2)
            z = np.uint64(self._state) + np.arange(1, drawn + 1, dtype=np.uint64) * _GAMMA
            z = (z ^ (z >> 30)) * _MIX1  # wraps mod 2^64
            z = (z ^ (z >> 27)) * _MIX2
            u = ((z ^ (z >> 31)) >> 11).astype(float) * 2.0**-53
            zeros = np.flatnonzero(u[::2] == 0.0)
            if zeros.size:
                drawn = 2 * int(zeros[0]) + 1
            self._state = (self._state + drawn * _GAMMA) & _MASK
            u = u[:drawn].tolist()
            for u1, u2 in zip(u[::2], u[1::2]):
                radius, angle = math.sqrt(-2.0 * math.log(u1)), 2.0 * math.pi * u2
                out.append(radius * math.cos(angle))
                out.append(radius * math.sin(angle))
        if len(out) > count:
            self._spare_gauss = out.pop()
        return out
