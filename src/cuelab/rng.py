"""Deterministic, splittable random streams.

All randomness in the package flows through :class:`RngStream`: a frozen
(seed, stream) pair that deterministically names one PCG64 stream via
numpy's ``SeedSequence`` spawn mechanism.  Two properties matter:

* the same (seed, stream) pair always yields the same generator, on any
  machine and under any process/worker layout;
* distinct stream indices yield statistically independent generators, so a
  Monte Carlo run can key one stream per block of samples (a block of one
  sample, or a fixed number of rows drawn as one array) and reduce in a
  fixed order, making its output invariant under the worker count as long
  as the block size never depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """Name of one deterministic random stream.

    Parameters
    ----------
    seed : int
        Nonnegative root seed shared by a whole run.
    stream : int
        Nonnegative substream index.  Streams with the same seed and
        different indices are independent.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidArgumentError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.stream, (int, np.integer)) or self.stream < 0:
            raise InvalidArgumentError(
                f"stream must be a nonnegative integer, got {self.stream!r}"
            )

    def generator(self) -> np.random.Generator:
        """Return a fresh ``numpy.random.Generator`` for this stream.

        Repeated calls return independent generator objects in the same
        state, so a consumer that draws a fixed sequence of variates gets
        identical values every time.
        """
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream),))
        return np.random.default_rng(seq)

    def child(self, index: int) -> "RngStream":
        """Return a derived stream for subtask ``index``.

        Children are formed by packing the parent stream and the child
        index into one integer, ``parent * 2**40 + index + 1``, which is
        injective for indices below 2**40 and never collides with the
        parent itself (index 0 maps to a distinct stream).
        """
        if not isinstance(index, (int, np.integer)) or index < 0 or index >= 1 << 40:
            raise InvalidArgumentError(f"child index out of range: {index!r}")
        return RngStream(self.seed, (int(self.stream) << 40) + int(index) + 1)
