"""Seeded random-number streams with independent substreams.

Every Monte Carlo routine in the package takes an :class:`RngStream`.
Identical (seed, path) pairs reproduce identical draws bit-for-bit, and
distinct paths give statistically independent streams.  `sweep` is the
package's one Monte Carlo layout: it splits a study's draws into blocks
of at most ROW_BLOCK rows, block i from substream i, so every result
depends on the seed and the number of draws alone.  `map_jobs` runs the
blocks on a helper thread only while that is faster than running them in
turn, and `keep_heap` stops the C library from handing each block's
freed temporaries back to the operating system.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Tuple

import numpy as np

__all__ = ["RngStream", "keep_heap", "map_jobs", "sweep"]

# draws per block: one Monte Carlo job draws one block of base variates and
# decides it at every key before it returns
ROW_BLOCK = 16_384

# threads that may run Monte Carlo jobs; numpy's Generator releases the GIL
# while it fills an array
WORKERS = min(2, len(os.sched_getaffinity(0)))

# the wall clock that `map_jobs` times its jobs with
clock = time.perf_counter

# glibc's mallopt parameter M_TOP_PAD, and the freed memory that the heap
# keeps at its top: about the temporaries one job makes and frees, some
# nine arrays of ROW_BLOCK floats
_M_TOP_PAD = -2
_TOP_PAD = 1 << 20


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
    size (one if n_sims is 1); the layout depends on n_sims alone, never
    on WORKERS or on how `map_jobs` spreads the blocks over threads.
    Block i is base = draw(rng.substream(i), size), one job of `map_jobs`
    in which every key counts it: all keys see the same draws, and a job
    holds one block of them.
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
    """[job(i) for i in range(n_jobs)], results in job order, on the
    calling thread and, while they pay, WORKERS - 1 helper threads.

    Up to WORKERS jobs all run at once.  Of more, job 0 runs alone on the
    calling thread and is timed (`clock`).  Then every thread takes the
    next job in turn, and the calling thread times each job it runs; the
    helpers take jobs for as long as such a job, run beside theirs, takes
    less than WORKERS jobs in turn would.  After the first that does not,
    the calling thread runs the rest alone.  So a study whose jobs contend
    for the interpreter lock drops its helpers after one round, with no
    tuned cut-off.

    job shares no mutable state and returns a small result, so at most
    WORKERS blocks are alive at once.  After a job raises, none starts.
    """
    if WORKERS < 2 or n_jobs < 2:
        return [job(i) for i in range(n_jobs)]
    results = [None] * n_jobs
    first, solo = 0, math.inf  # up to WORKERS jobs: no job runs alone
    if n_jobs > WORKERS:
        start = clock()
        results[0] = job(0)
        first, solo = 1, clock() - start
    pending = iter(range(first, n_jobs))
    lock = threading.Lock()
    helping = True

    def take(helper):
        with lock:
            return None if helper and not helping else next(pending, None)

    def work(helper):
        nonlocal helping
        try:
            while (k := take(helper)) is not None:
                start = None if helper else clock()
                results[k] = job(k)
                if start is not None and clock() - start >= WORKERS * solo:
                    helping = False
        except BaseException:
            with lock:
                for _ in pending:  # no job starts after a failure
                    pass
            raise

    with ThreadPoolExecutor(WORKERS - 1) as pool:
        helpers = [pool.submit(work, True) for _ in range(WORKERS - 1)]
        work(False)
        for helper in helpers:
            helper.result()
    return results


@cache  # once per process
def keep_heap() -> None:
    """Keep _TOP_PAD bytes of freed memory at the top of the C heap, so
    that the temporaries of one Monte Carlo job reuse the pages of the
    last one.  Without it glibc trims the heap after each block's arrays
    are freed and faults the pages back in for the next block: about
    96,000 minor page faults for `power` on two_sample_t at 400,000 draws,
    and under 600 with it.  A no-op where the C library has no mallopt.

    Call it after the imports: per glibc's malloc.c, any mallopt setting
    freezes the dynamic mmap threshold where it stands, and a threshold
    still at its start value of 128 KiB would map and unmap each of a
    block's 128 KiB arrays.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, _TOP_PAD)
