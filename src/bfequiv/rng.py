"""Seeded random-number streams with independent substreams.

Every Monte Carlo routine in the package takes an :class:`RngStream`.
Identical (seed, path) pairs reproduce identical draws bit-for-bit, and
distinct paths give statistically independent streams.  `sweep` is the
package's one Monte Carlo layout: it splits a study's draws into blocks
of at most ROW_BLOCK rows, block i from substream i, so every result
depends on the seed and the number of draws alone.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

__all__ = ["RngStream", "map_jobs", "sweep"]

# draws per block: one Monte Carlo job draws one block of base variates and
# decides it at every key before it returns
ROW_BLOCK = 16_384

# threads that run Monte Carlo jobs; numpy's Generator releases the GIL
# while it fills an array
WORKERS = min(2, len(os.sched_getaffinity(0)))


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


def _add(sums, terms):
    """Term-by-term sum of two tuples (a list term concatenates)."""
    return terms if sums is None else tuple(a + b for a, b in zip(sums, terms))


def sweep(draw: Callable, count: Callable, n_keys: int, rng: RngStream, n_sims: int) -> list:
    """For each key k < n_keys, the term-by-term sums of count(k, base) over
    n_sims draws, added in draw order (a list term concatenates).

    The draws form max(2, ceil(n_sims / ROW_BLOCK)) blocks of near-equal
    size (one if n_sims is 1), so that two threads always have work; the
    layout depends on n_sims alone, never on WORKERS.  Block i is
    base = draw(rng.substream(i), size), one job of `map_jobs` in which
    every key counts it: all keys see the same draws, and a job holds one
    block of them.
    """
    n_blocks = max(min(2, n_sims), -(-n_sims // ROW_BLOCK))

    def job(i):
        base = draw(rng.substream(i), n_sims * (i + 1) // n_blocks - n_sims * i // n_blocks)
        return [count(k, base) for k in range(n_keys)]

    totals = [None] * n_keys
    for sums in map_jobs(job, n_blocks):
        totals = [_add(total, terms) for total, terms in zip(totals, sums)]
    return totals


def map_jobs(job: Callable, n_jobs: int) -> list:
    """[job(i) for i in range(n_jobs)] on the calling thread and WORKERS - 1
    helpers, each taking the next job in turn; results keep job order.

    job shares no mutable state and returns a small result, so at most
    WORKERS blocks are alive at once.  After a job raises, none starts.
    """
    if WORKERS < 2 or n_jobs < 2:
        return [job(i) for i in range(n_jobs)]
    results = [None] * n_jobs
    pending = iter(range(n_jobs))
    lock = threading.Lock()

    def take():
        with lock:
            return next(pending, None)

    def work():
        try:
            while (k := take()) is not None:
                results[k] = job(k)
        except BaseException:
            with lock:
                for _ in pending:  # no job starts after a failure
                    pass
            raise

    with ThreadPoolExecutor(WORKERS - 1) as pool:
        helpers = [pool.submit(work) for _ in range(WORKERS - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results
