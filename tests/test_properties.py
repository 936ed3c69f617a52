import dataclasses
import importlib
import sys

import numpy as np
import pytest

from bfequiv import bayes_factors as bf
from bfequiv import cli, integrate, priors
from bfequiv import problems as prob
from bfequiv.problems import SufficientSummary
from bfequiv.properties import PropertySpec, catalogue, run_catalogue, run_property
from bfequiv.rng import RngStream

# the package exports the function calibrate under the module's name
calibration = importlib.import_module("bfequiv.calibrate")


class TestCatalogue:
    def test_size(self):
        assert len(catalogue()) == 6

    def test_names_unique_and_claims_present(self):
        specs = catalogue()
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)
        assert all(s.claim for s in specs)

    def test_full_run_passes(self):
        results, transcript = run_catalogue(RngStream(0), n_trials=25)
        assert all(r.passed for r in results)
        assert transcript.count("PASS") == len(results)

    def test_transcript_deterministic(self):
        _, t1 = run_catalogue(RngStream(123), n_trials=10)
        _, t2 = run_catalogue(RngStream(123), n_trials=10)
        assert t1 == t2


class TestRunProperty:
    def test_failure_reports_the_failing_case(self):
        spec = PropertySpec(
            name="always_fails_above_one",
            claim="x stays below 1",
            draw=lambda rng: {"x": float(rng.generator.uniform(5.0, 10.0))},
            test=lambda c: None if c["x"] < 1.0 else f"x = {c['x']}",
        )
        result = run_property(spec, RngStream(1), n_trials=10)
        assert not result.passed and result.n_trials == 1
        assert result.message == f"x = {result.counterexample['x']}"
        assert 5.0 <= result.counterexample["x"] < 10.0
        assert "FAIL" in result.line()

    def test_pass_line_format(self):
        spec = PropertySpec(
            name="trivial",
            claim="draws are finite",
            draw=lambda rng: {"x": 0.5},
            test=lambda c: None,
        )
        result = run_property(spec, RngStream(2), n_trials=5)
        assert result.passed
        assert result.line() == "PASS trivial (5 trials): draws are finite"



def _plant_factory(monkeypatch, kind, prior, change):
    """Replace the CLI's factory for (kind, prior) by ``change`` of its pair."""
    factory = cli.KINDS[kind].priors[prior]
    monkeypatch.setitem(cli.KINDS[kind].priors, prior, lambda problem, get: change(factory(problem, get)))


def _wrap(monkeypatch, owner, name, defect):
    """Replace ``owner.name`` by ``defect(original)``."""
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))


def _reciprocal(f):
    """1/B: decreasing wherever B increases."""
    return lambda *args: 1.0 / f(*args)


def _shift_root(brentq):
    return lambda *args, **kwargs: brentq(*args, **kwargs) + 1e-6


def _complement_t(from_f):
    # T = 1/(1+F) in place of F/(1+F)
    return lambda self, f: self(1.0 / (1.0 + np.asarray(f, dtype=float)))


def _l1_statistic(summarize):
    def with_l1(self, y, X):
        s = summarize(self, y, X)
        return SufficientSummary(t_vec=s.t_vec, t_abs=float(np.abs(s.t_vec).sum()) ** 2)

    return with_l1


def _biased_s2(summarize):
    # the pooled sum of squares with S2^2 taken with divisor n2, not n2 - 1
    def biased(self, x1, x2):
        s = summarize(self, x1, x2)
        return SufficientSummary(s, pooled=s.pooled - (self.n2 - 1) * np.var(x2, ddof=1) / self.n2)

    return biased


def _skewed_z(orthonormalize):
    def skewed(X):
        Z, Q = orthonormalize(X)
        return Z * 1.001, Q

    return skewed


def _raise_integrity(method):
    def raising(*args):
        raise bf.NumericalIntegrityError("planted")

    return raising


def _inverse_stat(pair):
    """The pair with its statistic route reading 1/F in place of F."""
    return cli.BfPair(lambda f: pair.of_stat(1.0 / np.asarray(f)), pair.of_summary)


def _reject_config(build_problem):
    def rejecting(cfg):
        raise cli.ConfigError("planted")

    return rejecting


def _plant_reciprocal_one_sided(monkeypatch):
    for name in ("bf_one_sided_normal_halfnormal", "bf_one_sided_normal_exponential"):
        _wrap(monkeypatch, bf, name, _reciprocal)


CLASSICAL = "calibrated_rule_is_classical"
# defect -> (the property it fails, plant(monkeypatch), start of the failure message)
DEFECTS = {
    "one_sided_reciprocal": (CLASSICAL, _plant_reciprocal_one_sided, "decisions differ"),
    # 1/B of the conjugate peaks between the critical values
    "two_sided_reciprocal": (
        CLASSICAL, lambda mp: _wrap(mp, bf, "bf_two_sided_normal_conjugate", _reciprocal), "ClassViolationError"
    ),
    # the CLI's unknown-variance regression factory reads 1/F
    "regression_reads_inverse_f": (
        CLASSICAL,
        lambda mp: _plant_factory(mp, "regression_unknown_var", "gaussian_spherical", _inverse_stat),
        "decisions differ",
    ),
    "two_sample_known_var_reciprocal": (
        CLASSICAL, lambda mp: _wrap(mp, bf.TwoSampleKnownVarBf, "from_t", _reciprocal), "decisions differ"
    ),
    "two_sample_t_reciprocal": (
        CLASSICAL, lambda mp: _wrap(mp, bf.TwoSampleTBf, "from_t", _reciprocal), "ClassViolationError"
    ),
    "two_sample_t_raises": (
        CLASSICAL, lambda mp: _wrap(mp, bf.TwoSampleTBf, "from_t", _raise_integrity),
        "NumericalIntegrityError: planted",
    ),
    # B of the subset-selection form, shared by t_test, regression_unknown_var
    # and subset_selection, reads the complement of T
    "subset_selection_complement_t": (
        CLASSICAL, lambda mp: _wrap(mp, bf.SubsetSelectionBf, "from_f", _complement_t), "ClassViolationError"
    ),
    # the CLI's shifted-exponential factory reads 1/F
    "variance_ratio_reads_inverse_f": (
        CLASSICAL,
        lambda mp: _plant_factory(mp, "variance_ratio", "shifted_exponential", _inverse_stat),
        "decisions differ",
    ),
    "brentq_shifted": (CLASSICAL, lambda mp: _wrap(mp, calibration, "brentq", _shift_root), "round trip"),
    # a CLI that rejects every config stops the redrawing, and fails
    "every_config_rejected": (
        CLASSICAL, lambda mp: _wrap(mp, cli, "build_problem", _reject_config), "ConfigError: planted"
    ),
    # the statistic route of the CLI's t-test pair reads t 1 % too large
    "t_test_statistic_function": (
        "t_test_statistic_function",
        lambda mp: _plant_factory(
            mp, "t_test", "gaussian_scale",
            lambda pair: cli.BfPair(lambda t: pair.of_stat(1.01 * np.asarray(t)), pair.of_summary),
        ),
        "B at xbar",
    ),
    "radial_rotation_invariant": (
        "radial_rotation_invariant",
        lambda mp: _wrap(mp, prob.RegressionKnownVar, "summarize", _l1_statistic),
        "rotation changed B",
    ),
    "subjective_score_bounds": (
        "subjective_score_bounds",
        lambda mp: _wrap(
            mp, bf, "bf_subjective_variance", lambda g: lambda q, t: g(0.0, t) * (1.0 + np.asarray(q))
        ),
        "B*(",
    ),
    "pooled_ss_decomposition": (
        "pooled_ss_decomposition",
        lambda mp: _wrap(mp, prob.TwoSampleMeansUnknownEqualVar, "summarize", _biased_s2),
        "sum-of-squares decomposition off",
    ),
    "hat_matrix_split": (
        "hat_matrix_split", lambda mp: _wrap(mp, prob, "orthonormalize", _skewed_z), "summary (rss_null"
    ),
}


@pytest.mark.parametrize("name, plant, expected", DEFECTS.values(), ids=list(DEFECTS))
def test_planted_defect_fails_the_property(monkeypatch, name, plant, expected):
    """Each property fails on a defect planted in the code it checks; a
    check that raises fails with the exception's type and message."""
    (spec,) = [s for s in catalogue() if s.name == name]
    plant(monkeypatch)
    result = run_property(spec, RngStream(0), n_trials=20)
    assert not result.passed
    assert result.message.startswith(expected)


def test_every_property_has_a_planted_defect():
    assert {name for name, _, _ in DEFECTS.values()} == {s.name for s in catalogue()}


def test_calibration_property_reaches_every_pair():
    """At the bench's 20 trials the calibration property draws each of the
    13 pairs of `cli.KINDS` that calibrate, and passes on every one."""
    (spec,) = [s for s in catalogue() if s.name == CLASSICAL]
    cases = []
    drawing = dataclasses.replace(spec, draw=lambda rng: cases.append(spec.draw(rng)) or cases[-1])
    assert run_property(drawing, RngStream(7), n_trials=20).passed
    drawn = {(c["config"]["problem.kind"], c["config"]["prior.kind"]) for c in cases}
    expected = {(kind, prior) for kind, entry in cli.KINDS.items() for prior in entry.priors}
    assert drawn == expected - {("two_sided_normal", "point_mass")}
    assert len(drawn) == 13


def test_catalogue_reaches_only_config_routes(monkeypatch):
    """No property runs adaptive quadrature, the bounded minimiser, the
    pairing solver or a test-only B route: with each made to raise,
    wherever the package looks it up, the whole catalogue still passes."""

    def planted(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        return raising

    modules = [m for name, m in sys.modules.items() if name == "bfequiv" or name.startswith("bfequiv.")]
    for owner, name in (
        (integrate, "quad"),
        (integrate, "log_quad"),
        (integrate, "minimize_bounded"),
        (priors, "solve_pairing"),
        (bf, "bf_two_sided"),
    ):
        original = getattr(owner, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, planted(name))
    monkeypatch.setattr(bf.VarianceRatioBf, "adaptive", planted("VarianceRatioBf.adaptive"))
    results, _ = run_catalogue(RngStream(7), n_trials=20)
    assert [r.line() for r in results if not r.passed] == []
    assert len(results) == len(catalogue())
