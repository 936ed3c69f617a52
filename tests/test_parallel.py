"""The Monte Carlo loops run on threads and match a plain sequential loop.

Each study runs with one, two and three worker threads (three is more
than the two the package uses, and than the cores of a small machine),
with a short switch interval, and its result must equal a loop written
here over the same layout: block after block of at most ROW_BLOCK base
draws, block i from substream i, every theta (or run) mapped from a block
before the next block is drawn.  A fake clock sets whether `map_jobs`
keeps its helpers (two threads) or drops them after one round (three).
"""

import itertools
import os
import subprocess
import sys
import threading
import time
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
from bfequiv.rng import ROW_BLOCK, RngStream, map_jobs, sweep


def paced(tick):
    """A clock for `map_jobs` whose k-th reading is tick(k)."""
    readings = itertools.count()
    return lambda: tick(next(readings))


# readings 0, 1, 2, ...: every job the calling thread times takes as long
# as job 0, so the helpers keep taking jobs
def helpers_kept(k):
    return k


# readings 1, 2, 4, 8, ...: a job read from 4 to 8 takes four times
# job 0 read from 1 to 2, so the helpers stop after one round
def helpers_dropped(k):
    return 2**k


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}_threads")
def threads(request, monkeypatch):
    monkeypatch.setattr(rng_module, "WORKERS", request.param)
    monkeypatch.setattr(rng_module, "clock", paced(helpers_kept if request.param == 2 else helpers_dropped))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def sequential_blocks(problem, rng, n_sims):
    """The base draws of a study, block after block in the package's
    order: at least two blocks of near-equal size (one for a single draw)
    and at most rng.ROW_BLOCK rows each, block i from rng.substream(i)."""
    n_blocks = max(min(2, n_sims), -(-n_sims // rng_module.ROW_BLOCK))
    for i in range(n_blocks):
        size = n_sims * (i + 1) // n_blocks - n_sims * i // n_blocks
        yield problem.draw_base(rng.substream(i), size)


def two_sample_t():
    problem = TwoSampleMeansUnknownEqualVar(n1=5, n2=7)
    engine = bf.TwoSampleTBf(5, 7, 1.0)
    rule = calibrate(problem, 0.05, engine.from_t)
    return problem, rule, lambda s: engine(s.d, s.pooled)


class TestMapJobs:
    def test_results_in_job_order(self, threads):
        assert map_jobs(lambda k: k * k, 50) == [k * k for k in range(50)]

    def test_error_is_raised_and_stops_new_jobs(self, threads):
        started = []

        def job(k):
            started.append(k)
            if k == 3:
                raise ZeroDivisionError("job 3")
            return k

        with pytest.raises(ZeroDivisionError, match="job 3"):
            map_jobs(job, 200)
        assert len(started) < 200

    @pytest.mark.parametrize("tick, kept", [(helpers_kept, True), (helpers_dropped, False)], ids=["kept", "dropped"])
    def test_helper_takes_jobs_while_it_pays(self, monkeypatch, tick, kept):
        monkeypatch.setattr(rng_module, "WORKERS", 2)
        monkeypatch.setattr(rng_module, "clock", paced(tick))
        caller, ran_on = threading.get_ident(), {}

        def job(k):
            ran_on[k] = threading.get_ident()
            time.sleep(0.002)  # releases the interpreter lock, so the helper takes jobs
            return k * k

        assert map_jobs(job, 40) == [k * k for k in range(40)]
        assert ran_on[0] == caller  # job 0 runs alone on the calling thread
        helped = sum(thread != caller for thread in ran_on.values())
        # kept: about half the jobs; dropped: at most the jobs the helper
        # took beside the first job the calling thread timed
        assert helped >= 10 if kept else helped <= 2


@pytest.mark.parametrize(
    "n_sims, blocks",
    [(1, 1), (2, 2), (1_000, 2), (2 * ROW_BLOCK, 2), (2 * ROW_BLOCK + 1, 3), (100_000, 7), (1_000_000, 62)],
)
def test_sweep_layout(threads, n_sims, blocks):
    # at least two blocks whatever the thread count, so two threads have
    # work; block i is one draw from substream i of at most ROW_BLOCK rows,
    # and every key counts every block, the list terms in block order
    drawn = []

    def draw(stream, size):
        drawn.append((stream.path, size))
        return stream.path[0], size

    sums = sweep(draw, lambda k, base: (base[1], 1, [base[0]]), 3, RngStream(60), n_sims)
    assert sorted(path for path, _ in drawn) == [(i,) for i in range(blocks)]
    sizes = [size for _, size in drawn]
    assert sum(sizes) == n_sims and max(sizes) - min(sizes) <= 1 and max(sizes) <= ROW_BLOCK
    assert sums == [(n_sims, blocks, list(range(blocks)))] * 3


class TestThreadedEqualsSequential:
    def test_mc_power(self, threads):
        problem, rule, of_summary = two_sample_t()
        thetas, n_sims = [0.0, 0.4, 1.2], 50_000
        classical, bayes, n_disagree, _ = mc_power(problem, rule, RngStream(61), thetas, n_sims, of_summary)
        counts = np.zeros((len(thetas), 2), dtype=np.int64)
        for base in sequential_blocks(problem, RngStream(61), n_sims):
            for i, th in enumerate(thetas):
                s = problem.derive(problem.at(base, th))
                counts[i] += [
                    np.count_nonzero(rule.classical(problem.decision_stat(s))),
                    np.count_nonzero(rule.bayes(of_summary(s))),
                ]
        assert_array_equal(classical.power, counts[:, 0] / n_sims)
        assert_array_equal(bayes.power, counts[:, 1] / n_sims)
        assert n_disagree == 0

    def test_verify_examples_and_their_order(self, threads, monkeypatch):
        # a threshold 0.2 % high: a few disagreeing draws in most blocks
        monkeypatch.setattr(rng_module, "ROW_BLOCK", 10_000)
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        bad = DecisionRule(rule.region, rule.lam * 1.002)
        thetas, n_sims = (0.0, 0.5, 1.0), 40_000
        report = verify_equivalence(p, lambda s: g(s.t), bad, RngStream(62), n_sims, thetas)
        n_reject = n_mismatch = 0
        examples = [[] for _ in thetas]
        for b, base in enumerate(sequential_blocks(p, RngStream(62), n_sims)):
            for j, th in enumerate(thetas):
                t = p.at(base, th).t
                classical, bayes = bad.classical(t), bad.bayes(g(t))
                n_reject += np.count_nonzero(classical)
                n_mismatch += np.count_nonzero(classical != bayes)
                examples[j] += [({"theta": th, "stat": float(x)}, b) for x in t[classical != bayes]]
        # the examples run theta by theta, each in draw order
        first = [e for per_theta in examples for e in per_theta][:5]
        assert (report.n_reject, report.n_mismatch) == (n_reject, n_mismatch)
        assert report.n_total == n_sims * len(thetas)
        assert report.examples == [e for e, _ in first]
        assert len({b for _, b in first}) > 1  # the five examples span blocks

    def test_dominance_study(self, threads):
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
        thetas, n_sims = [1.5, 3.0], 60_000
        rep = dominance_study(p, 0.05, thetas, RngStream(63), n_sims)
        runs = [(1.0, 1.0), (1.0, LIMIT_SCALE)] + [(th, 1.0) for th in thetas]
        hits = np.zeros((len(runs), 2), dtype=np.int64)
        proper_only = 0
        for base in sequential_blocks(p, RngStream(63), n_sims):
            for k, (th, scale2) in enumerate(runs):
                s = p.derive(p.at(base, th, scale2=scale2))
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
        # 30 000 draws: two blocks of 15 000
        thetas, n, n_sims = np.linspace(0.0, 1.2, 5), 10, 30_000
        comp = johnson_comparison(10.0, n, thetas, rng=RngStream(64), n_sims=n_sims)
        log_lam = normal_log_ratio(comp.gamma_matched, comp.theta_star, 0.0, n)
        p = OneSidedNormal(n)
        hits = np.zeros((len(thetas), 2), dtype=np.int64)
        for base in sequential_blocks(p, RngStream(64), n_sims):
            for i, th in enumerate(thetas):
                # t = n theta + sqrt(n) z, the law N(n theta, n)
                t = base.z * np.sqrt(n) + n * th
                hits[i] += [
                    np.count_nonzero(normal_log_ratio(t, comp.theta_star, 0.0, n) > log_lam),
                    np.count_nonzero(t > comp.gamma_matched),
                ]
        assert_array_equal(comp.power_point_mass, hits[:, 0] / n_sims)
        assert_array_equal(comp.power_classical, hits[:, 1] / n_sims)
        assert comp.n_disagree == 0


def traced_peak(monkeypatch, problem_cls, study):
    """(tracemalloc peak of study(), number of threads that drew a block),
    with the package's two worker threads."""
    monkeypatch.setattr(rng_module, "WORKERS", 2)
    callers = set()
    draw_base = problem_cls.draw_base

    def counted(self, *args, **kwargs):
        callers.add(threading.get_ident())
        return draw_base(self, *args, **kwargs)

    monkeypatch.setattr(problem_cls, "draw_base", counted)
    tracemalloc.start()
    try:
        study()
        return tracemalloc.get_traced_memory()[1], len(callers)
    finally:
        tracemalloc.stop()


# bytes of one float array of ROW_BLOCK draws; a job measures about 9 of
# them (base, derived fields and B's temporaries)
BLOCK_BYTES = ROW_BLOCK * 8


def test_each_two_sample_job_holds_one_block(monkeypatch):
    # 2 theta x 400 000 two-sample draws in 25 blocks: a job holds one
    # block of base draws (z, pooled) and one derived block (d, T, B and
    # their temporaries), whatever the number of draws
    problem = TwoSampleMeansUnknownEqualVar(n1=12, n2=15)
    engine = bf.TwoSampleTBf(12, 15, 1.0)
    rule = calibrate(problem, 0.05, engine.from_t)
    peak, callers = traced_peak(
        monkeypatch,
        TwoSampleMeansUnknownEqualVar,
        lambda: mc_power(
            problem, rule, RngStream(65), [0.0, 0.5], 400_000,
            bf_of_summary=lambda s: engine(s.d, s.pooled),
        ),
    )
    assert peak < 11 * BLOCK_BYTES * callers


def test_each_dominance_job_holds_one_block(monkeypatch):
    # 4 runs x 1 000 000 draws in 62 blocks: a job holds one block of
    # chi-square pairs and one derived block (S1^2, S2^2, F, Q, T)
    problem = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
    peak, callers = traced_peak(
        monkeypatch,
        SubjectiveVarianceEquality,
        lambda: dominance_study(problem, 0.05, [1.5, 3.0], RngStream(66), 1_000_000),
    )
    assert peak < 11 * BLOCK_BYTES * callers


def test_studies_count_the_same_classical_rejections():
    # the layout depends on the seed and n_sims alone, so three studies of
    # the same problem, theta and draws count the same classical rejections
    p, theta, n_sims = OneSidedNormal(n=4), 0.3, 250_000
    g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
    rule = calibrate(p, 0.05, g)
    report = verify_equivalence(p, lambda s: g(s.t), rule, RngStream(8), n_sims, thetas=(theta,))
    classical, _, _, _ = mc_power(p, rule, RngStream(8), [theta], n_sims, lambda s: g(s.t))
    comp = johnson_comparison(10.0, 4, [theta], rng=RngStream(8), n_sims=n_sims)
    assert report.n_reject == classical.power[0] * n_sims == comp.power_classical[0] * n_sims == 37_155


def test_power_run_keeps_its_heap(tmp_path):
    # a fresh process, as a user's CLI run, counts its own minor page faults
    # over one power run on the benchmark's two-sample t config (21 theta x
    # 400 000 draws); a heap trimmed after each block faults its pages back
    # in for the next, about 96 000 times
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    script = (
        "import resource, sys\n"
        "from bfequiv.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "code = main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    config = os.path.join(root, "bench", "configs", "closed", "two_sample_t.ini")
    src = os.path.dirname(os.path.dirname(rng_module.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, "power", "--config", config, "--out", str(tmp_path / "out"), "--seed", "7"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    code, faults = map(int, proc.stdout.split("\n")[-2].split())
    assert code == 0 and faults < 5_000
