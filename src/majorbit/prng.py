"""Named deterministic PRNG used for every seeded computation.

splitmix64: 64-bit state, one addition + two xorshift-multiplies per draw.
Chosen over ``random.Random`` so that streams are bit-identical across
Python versions and platforms. All library randomness flows through this
class from a single seed.
"""

import math

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_gauss = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
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
        if self._spare_gauss is not None:
            value, self._spare_gauss = self._spare_gauss, None
            return value
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)
