"""Deterministic, seedable uniform-variate streams.

Every stochastic operation in this package draws from an explicit
:class:`RandomSource`; there is no global RNG.  The same seed produces the
identical variate sequence on every platform (the underlying generator is
PCG64 keyed directly by the seed).  Independent sub-streams for concurrent
workers or per-trial sessions are derived with :meth:`RandomSource.child`.

Bulk-draw contract: :meth:`RandomSource.uniform_array` returns the next k
variates of the stream as a float64 array, exactly the values and the order
that k calls of :meth:`RandomSource.uniform` would return.  Scalar and bulk
draws may be interleaved freely; a session that draws its variates in
whole arrays is therefore bit-for-bit identical to one that draws them one
at a time.  A bulk draw of 0 consumes nothing.  :meth:`RandomSource.skip`
moves past the next k variates unread: the stream is left exactly where a
discarded ``uniform_array(k)`` would leave it, so a caller that reads only
part of a block may skip the rest without changing any later draw, and
:meth:`RandomSource.unread` moves back over the last k, which come again.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer: a full-avalanche 64-bit mix.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_child_seed(seed: int, index: int) -> int:
    """Stable 64-bit mix of (seed, index): splitmix64(seed XOR splitmix64(index + 1)).

    Documented so that alternate implementations can reproduce the exact
    child streams from a master seed and a child index.
    """
    if index < 0:
        raise ValueError(f"index: child index must be >= 0, got {index}")
    return _splitmix64((seed & _MASK64) ^ _splitmix64((index + 1) & _MASK64))


class RandomSource:
    """A seeded stream of uniform variates in [0, 1).

    Scalar and bulk draws interleave in one well-defined order; replaying a
    seed reproduces the identical sequence bit for bit.  Instances are not
    thread-safe; give each concurrent worker its own ``child``.  The PCG64
    generator is built on the first draw or skip, so a source that is only
    split into children costs no generator.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def uniform(self) -> float:
        """Next uniform variate in [0, 1)."""
        return self._generator().random()

    def uniform_array(self, k: int) -> np.ndarray:
        """Next ``k`` variates as a float64 array, in :meth:`uniform` order.

        PCG64 yields the same doubles whether they are drawn in one call or
        in several.
        """
        if k < 0:
            raise ValueError(f"k: variate count must be >= 0, got {k}")
        return self._generator().random(k)

    def skip(self, k: int) -> None:
        """Move past the next ``k`` variates unread, as ``uniform_array(k)`` would.

        A double costs PCG64 one 64-bit output, so this is
        ``PCG64.advance(k)``, whose cost grows with the bit length of ``k``.
        """
        if k < 0:
            raise ValueError(f"k: variate count must be >= 0, got {k}")
        self._generator().bit_generator.advance(k)

    def unread(self, k: int) -> None:
        """Move back over the last ``k`` variates drawn, so that the next draws repeat them."""
        if k < 0:
            raise ValueError(f"k: variate count must be >= 0, got {k}")
        self._generator().bit_generator.advance(-k)  # taken modulo PCG64's period, 2**128

    def child(self, index: int) -> "RandomSource":
        """Derive an independent stream from (seed, index).

        Derivation uses the original seed, not the consumed state, so children
        are the same no matter how much of the parent stream has been used.
        """
        return RandomSource(derive_child_seed(self.seed, index))
