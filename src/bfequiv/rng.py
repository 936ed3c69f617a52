"""Seeded random-number streams with independent substreams.

Every Monte Carlo routine in the package takes an :class:`RngStream`.
Identical (seed, path) pairs reproduce identical draws bit-for-bit, and
distinct paths give statistically independent streams, so work can be
chunked across numbered substreams with a deterministic aggregate
(`sweep`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .problems import ROW_BLOCK

__all__ = ["RngStream", "map_jobs", "sweep"]

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


def sweep(draw: Callable, count: Callable, n_keys: int, rng: RngStream, n_sims: int, chunk_size: int) -> list:
    """For each key k < n_keys, the term-by-term sums of count(k, base) over
    n_sims draws, added in draw order (a list term concatenates).

    The draws form max(2, ceil(n_sims / chunk_size)) chunks of near-equal
    size (one if n_sims is 1), so that two threads always have work; the
    layout depends on n_sims and chunk_size alone, never on WORKERS.
    Chunk i draws from rng.substream(i) and is one job of `map_jobs`.
    Inside a job, base = draw(stream, size) is drawn ROW_BLOCK rows at a
    time, and every key counts a block before the next is drawn: all keys
    see the same draws, and a job holds one block of them.
    """
    n_chunks = max(min(2, n_sims), -(-n_sims // chunk_size))
    edges = [n_sims * i // n_chunks for i in range(n_chunks + 1)]

    def job(stream, size):
        sums = [None] * n_keys
        for done in range(0, size, ROW_BLOCK):
            base = draw(stream, min(ROW_BLOCK, size - done))
            for k in range(n_keys):
                sums[k] = _add(sums[k], count(k, base))
        return sums

    jobs = [(rng.substream(i), edges[i + 1] - edges[i]) for i in range(n_chunks)]
    totals = [None] * n_keys
    for sums in map_jobs(job, jobs):
        totals = [_add(total, terms) for total, terms in zip(totals, sums)]
    return totals


def map_jobs(reduce: Callable, jobs: Sequence[tuple]) -> list:
    """[reduce(*job) for job in jobs] on the calling thread and WORKERS - 1
    helpers, each taking the next job in turn; results keep job order.

    reduce shares no mutable state and returns a small result, so at most
    WORKERS chunks are alive at once.  After a job raises, none starts.
    """
    if WORKERS < 2 or len(jobs) < 2:
        return [reduce(*job) for job in jobs]
    results = [None] * len(jobs)
    pending = iter(range(len(jobs)))
    lock = threading.Lock()

    def take():
        with lock:
            return next(pending, None)

    def work():
        try:
            while (k := take()) is not None:
                results[k] = reduce(*jobs[k])
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
