"""Seeded random-number streams with independent substreams.

Every Monte Carlo routine in the package takes an :class:`RngStream`.
Identical (seed, path) pairs reproduce identical draws bit-for-bit, and
distinct paths give statistically independent streams, so work can be
chunked across numbered substreams with a deterministic aggregate.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = ["RngStream", "map_jobs", "tally"]

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


def tally(count: Callable, streams: Sequence[RngStream], n_sims: int, chunk_size: int) -> list:
    """For each stream k, the term-by-term sums of count(k, substream, size)
    over its chunks, added in chunk order (a list term concatenates).

    Chunk i holds at most chunk_size of the n_sims draws, from
    streams[k].substream(i); the chunks run through `map_jobs`.
    """
    jobs = [
        (k, stream.substream(i), min(chunk_size, n_sims - done))
        for k, stream in enumerate(streams)
        for i, done in enumerate(range(0, n_sims, chunk_size))
    ]
    sums = [None] * len(streams)
    for (k, _, _), terms in zip(jobs, map_jobs(count, jobs)):
        sums[k] = terms if sums[k] is None else tuple(a + b for a, b in zip(sums[k], terms))
    return sums


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
