"""Seeded random-number streams with independent substreams.

Every Monte Carlo routine in the package takes an :class:`RngStream`.
Identical (seed, path) pairs reproduce identical draws bit-for-bit, and
distinct paths give statistically independent streams, so work can be
chunked across numbered substreams with a deterministic aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["RngStream"]


@dataclass
class RngStream:
    """A reproducible RNG identified by a seed and a substream path."""

    seed: int
    path: Tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.path = tuple(self.path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def substream(self, stream_id: int) -> "RngStream":
        """An independent child stream; children of distinct parents never
        collide because the full path enters the seed sequence."""
        return RngStream(self.seed, self.path + (stream_id,))
