"""The Monte Carlo loops run on threads and match a plain sequential loop.

Each test forces three worker threads (more than the two the package
uses, and than the cores of a small machine) with a short switch
interval, then compares the threaded result with a loop over the same
substreams written here, one chunk after another.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bfequiv import bayes_factors as bf
from bfequiv import rng as rng_module
from bfequiv.calibrate import DecisionRule, calibrate, verify_equivalence
from bfequiv.power import LIMIT_SCALE, dominance_study, johnson_comparison, mc_power
from bfequiv.problems import (
    OneSidedNormal,
    SubjectiveVarianceEquality,
    TwoSampleMeansUnknownEqualVar,
    normal_log_ratio,
)
from bfequiv.rng import RngStream, map_jobs


@pytest.fixture
def threads(monkeypatch):
    monkeypatch.setattr(rng_module, "WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def sequential_chunks(problem, stream, theta, n_sims, chunk_size, **kw):
    for piece, done in enumerate(range(0, n_sims, chunk_size)):
        size = min(chunk_size, n_sims - done)
        yield problem.simulate_summary(stream.substream(piece), theta, size, **kw)


def two_sample_t():
    problem = TwoSampleMeansUnknownEqualVar(n1=5, n2=7)
    engine = bf.TwoSampleTBf(5, 7, 1.0)
    rule = calibrate(problem, 0.05, engine.from_t).rule
    return problem, rule, lambda s: engine(s.d, s.pooled)


class TestMapJobs:
    def test_results_in_job_order(self, threads):
        assert map_jobs(lambda k: k * k, [(k,) for k in range(50)]) == [k * k for k in range(50)]

    def test_error_is_raised_and_stops_new_jobs(self, threads):
        started = []

        def job(k):
            started.append(k)
            if k == 3:
                raise ZeroDivisionError("job 3")
            return k

        with pytest.raises(ZeroDivisionError, match="job 3"):
            map_jobs(job, [(k,) for k in range(200)])
        assert len(started) < 200


class TestThreadedEqualsSequential:
    def test_mc_power(self, threads):
        problem, rule, of_summary = two_sample_t()
        thetas, n_sims, chunk = [0.0, 0.4, 1.2], 50_000, 20_000
        classical, bayes, identical = mc_power(
            problem, rule, RngStream(61), thetas, n_sims, of_summary, chunk_size=chunk
        )
        counts = np.zeros((len(thetas), 2), dtype=np.int64)
        for i, th in enumerate(thetas):
            for s in sequential_chunks(problem, RngStream(61).substream(i), th, n_sims, chunk):
                s = problem.derive(s)
                counts[i] += [
                    np.count_nonzero(rule.classical(problem.decision_stat(s))),
                    np.count_nonzero(rule.bayes(of_summary(s))),
                ]
        assert_array_equal(classical.power, counts[:, 0] / n_sims)
        assert_array_equal(bayes.power, counts[:, 1] / n_sims)
        assert identical

    def test_verify_examples_and_their_order(self, threads):
        # a threshold 0.2 % high: a few disagreeing draws in most chunks
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g).rule
        bad = DecisionRule(rule.region, rule.lam * 1.002)
        thetas, n_sims, chunk = (None, 0.5, 1.0), 40_000, 10_000
        report = verify_equivalence(
            p, lambda s: g(s.t), bad, RngStream(62), n_sims, thetas=thetas, chunk_size=chunk
        )
        n_reject = n_mismatch = 0
        examples, sources = [], []
        for j, th in enumerate(thetas):
            th = p.theta0 if th is None else th
            chunks = sequential_chunks(p, RngStream(62).substream(j), th, n_sims, chunk)
            for piece, s in enumerate(chunks):
                classical, bayes = bad.classical(s.t), bad.bayes(g(s.t))
                n_reject += np.count_nonzero(classical)
                n_mismatch += np.count_nonzero(classical != bayes)
                examples += [{"theta": th, "stat": float(x)} for x in s.t[classical != bayes]]
                sources += [(j, piece)] * int(np.count_nonzero(classical != bayes))
        assert (report.n_reject, report.n_mismatch) == (n_reject, n_mismatch)
        assert report.n_total == n_sims * len(thetas)
        assert report.examples == examples[:5]
        assert len(set(sources[:5])) > 1  # the five examples span chunks

    def test_dominance_study(self, threads):
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
        thetas, n_sims, chunk = [1.5, 3.0], 60_000, 25_000
        rep = dominance_study(p, 0.05, thetas, RngStream(63), n_sims, chunk_size=chunk)
        root = RngStream(63)
        runs = [(1.0, 1.0, root.substream(0)), (1.0, LIMIT_SCALE, root.substream(1))]
        runs += [(th, 1.0, root.substream(i + 2)) for i, th in enumerate(thetas)]
        hits = np.zeros((len(runs), 2), dtype=np.int64)
        proper_only = 0
        for k, (th, scale2, stream) in enumerate(runs):
            for s in sequential_chunks(p, stream, th, n_sims, chunk, scale2=scale2):
                s = p.derive(s)
                proper = s.t_sub > (s.q + 0.5) ** 2 * (1.0 - 1.0 / rep.lam**2)
                classical = s.t_sub > rep.gamma_t
                hits[k] += [np.count_nonzero(proper), np.count_nonzero(classical)]
                proper_only += np.count_nonzero(proper & ~classical)
        assert rep.size_subjective_slice == hits[0, 0] / n_sims
        assert rep.size_subjective_limit == hits[1, 0] / n_sims
        assert_array_equal(rep.power_subjective, hits[2:, 0] / n_sims)
        assert_array_equal(rep.power_classical, hits[2:, 1] / n_sims)
        assert rep.n_proper_only == proper_only == 0

    def test_johnson_comparison(self, threads):
        thetas, n, n_sims = np.linspace(0.0, 1.2, 5), 10, 30_000
        comp = johnson_comparison(10.0, n, thetas, rng=RngStream(64), n_sims=n_sims)
        log_lam = normal_log_ratio(comp.gamma_matched, comp.theta_star, 0.0, n)
        hits = np.zeros((len(thetas), 2), dtype=np.int64)
        for i, th in enumerate(thetas):
            t = RngStream(64).substream(i).generator.normal(n * th, np.sqrt(n), size=n_sims)
            hits[i] = [
                np.count_nonzero(normal_log_ratio(t, comp.theta_star, 0.0, n) > log_lam),
                np.count_nonzero(t > comp.gamma_matched),
            ]
        assert_array_equal(comp.power_point_mass, hits[:, 0] / n_sims)
        assert_array_equal(comp.power_classical, hits[:, 1] / n_sims)
        assert comp.n_disagree == 0


def traced_peak(monkeypatch, problem_cls, study):
    """(tracemalloc peak of study(), number of threads that drew a chunk),
    with the package's two worker threads."""
    monkeypatch.setattr(rng_module, "WORKERS", 2)
    callers = set()
    simulate = problem_cls.simulate_summary

    def counted(self, *args, **kwargs):
        callers.add(threading.get_ident())
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(problem_cls, "simulate_summary", counted)
    tracemalloc.start()
    try:
        study()
        return tracemalloc.get_traced_memory()[1], len(callers)
    finally:
        tracemalloc.stop()


def test_each_thread_holds_under_two_summaries(monkeypatch):
    # 2 theta x 400 000 two-sample draws in chunks of 200 000: a chunk holds
    # d and pooled, drawn from their laws, plus about half an array of
    # per-block temporaries: T and B are formed per block of ROW_BLOCK draws
    problem = TwoSampleMeansUnknownEqualVar(n1=12, n2=15)
    engine = bf.TwoSampleTBf(12, 15, 1.0)
    rule = calibrate(problem, 0.05, engine.from_t).rule
    peak, callers = traced_peak(
        monkeypatch,
        TwoSampleMeansUnknownEqualVar,
        lambda: mc_power(
            problem, rule, RngStream(65), [0.0, 0.5], 400_000,
            bf_of_summary=lambda s: engine(s.d, s.pooled),
        ),
    )
    array_bytes = 200_000 * 8
    assert peak < 3.0 * array_bytes * callers


def test_each_dominance_thread_holds_two_draws(monkeypatch):
    # 4 runs x 1 000 000 draws in chunks of 500 000: a chunk holds the
    # scaled S1^2 and S2^2; F, Q and T are formed per block
    problem = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
    peak, callers = traced_peak(
        monkeypatch,
        SubjectiveVarianceEquality,
        lambda: dominance_study(problem, 0.05, [1.5, 3.0], RngStream(66), 1_000_000, chunk_size=500_000),
    )
    array_bytes = 500_000 * 8
    assert peak < 2.5 * array_bytes * callers
