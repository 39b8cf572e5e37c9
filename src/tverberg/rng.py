"""Deterministic pseudo-random numbers via SplitMix64.

The generator is the SplitMix64 stepper: state advances by the odd
constant 0x9E3779B97F4A7C15 modulo 2**64 and each output is the
xor-shift/multiply finalizer of the new state (multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31).  The
same seed yields the same stream on every platform and Python
version; nothing here depends on the stdlib `random` module.

Substreams: `substream_seed(seed, index)` mixes the pair into a fresh
64-bit seed via mix(mix(seed) ^ ((index + 1) * 0x9E3779B97F4A7C15)).
Trial i of any randomized search uses the generator seeded with
substream_seed(seed, i), so trials are reproducible individually.
"""

from __future__ import annotations

from typing import List, MutableSequence, TypeVar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Derive the seed for substream `index` of the stream `seed`."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return _mix(_mix(seed & _MASK) ^ (((index + 1) * _GAMMA) & _MASK))


class SplitMix64:
    """64-bit SplitMix64 generator with unbiased bounded sampling."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_below(self, n: int) -> int:
        """Uniform draw from 0..n-1 by rejection (no modulo bias), for
        1 <= n <= 2**64."""
        if n <= 0:
            raise ValueError("bound must be positive")
        if n > 1 << 64:
            raise ValueError("bound exceeds 2**64, the range of one draw")
        if n == 1:
            return 0
        # Largest multiple of n that fits in 64 bits; draws at or above
        # it are rejected so the remainder is exactly uniform.
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def next_sign(self) -> int:
        """Uniform draw from {-1, +1}."""
        return 1 if self.next_below(2) == 1 else -1

    def shuffle(self, items: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> List[int]:
        """Uniform permutation of 1..n."""
        items = list(range(1, n + 1))
        self.shuffle(items)
        return items
