import csv
import importlib.util
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import bfequiv
from bfequiv import bayes_factors as bf
from bfequiv import cli, integrate
from bfequiv.calibrate import MAX_EXAMPLES, DecisionRule
from bfequiv.cli import RunConfig, build_bf, main
from bfequiv.priors import ScaledSymmetricPrior, SphericalPrior, standard_normal_log_h
from bfequiv.problems import (
    GaussianMeanUnknownVar,
    RegressionKnownVar,
    RegressionUnknownVar,
    SufficientSummary,
)


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ONE_SIDED = """
problem.kind = one_sided_normal
problem.n = 4
prior.kind = point_mass
prior.theta1 = 1.0
run.alpha = 0.05
"""

ONE_SIDED_MODEL = "problem.kind = one_sided_normal\nproblem.n = 4\nprior.kind = point_mass\nprior.theta1 = 1.0"
VARIANCE_RATIO_MODEL = (
    "problem.kind = variance_ratio\nproblem.n1 = 5\nproblem.n2 = 6\n"
    "prior.kind = shifted_exponential\nprior.rate = 1.5"
)

VARIANCE_RATIO_HUGE_N2 = (
    "problem.kind = variance_ratio\nproblem.n1 = 10\nproblem.n2 = 1000000\nprior.kind = shifted_exponential\n"
)

SUBJECTIVE_MODEL = "problem.kind = subjective_variance\nproblem.n1 = 10\nproblem.n2 = 10\nprior.kind = gamma"
TWO_SAMPLE_T_MODEL = "problem.kind = two_sample_t\nproblem.n1 = 12\nproblem.n2 = 15\nprior.kind = conjugate"
JOHNSON_MODEL = "problem.kind = one_sided_normal\nproblem.n = 10\nrun.lambda = 10"

COMMANDS = ("calibrate", "verify", "power", "dominance", "johnson", "props")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mills(z):
    """exp(z^2/2) ndtr(z) at the working precision of mpmath."""
    return mpmath.exp(z**2 / 2) * mpmath.ncdf(z)


class TestCalibrateCommand:
    def test_alpha_mode_gamma_value(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED)
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "calibration.csv"))
        assert len(rows) == 1
        assert abs(float(rows[0]["gamma_upper"]) - 3.289707) < 1e-6
        assert abs(float(rows[0]["alpha"]) - 0.05) < 1e-12

    def test_lambda_mode_implied_alpha(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            ONE_SIDED.replace("run.alpha = 0.05", "run.lambda = 3.632"),
        )
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "calibration.csv"))
        assert abs(float(rows[0]["alpha"]) - 0.05) < 5e-5

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.cfg", "problem.kind = one_sided_normal\nbroken\n")
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_alpha_and_lambda_both_set_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + "run.lambda = 2.0\n")
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_class_violation_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            """
problem.kind = two_sided_normal
problem.n = 4
prior.kind = point_mass
prior.theta1 = 0.7
run.alpha = 0.05
""",
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "B(" in err  # names both Bayes-factor values

    @pytest.mark.parametrize("command", ["calibrate", "verify", "power"])
    def test_constant_bayes_factor_exit_3(self, tmp_path, capsys, command):
        # a point mass at theta0 gives B = 1 at every statistic: equal at
        # the two critical values, yet {B > lambda} never rejects
        cfg = write_config(
            tmp_path,
            "c.cfg",
            """
problem.kind = two_sided_normal
problem.n = 4
prior.kind = point_mass
prior.theta1 = 0
run.alpha = 0.05
run.n_sims = 20000
""",
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "1"]) == 3
        assert "B is constant" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_lambda_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            ONE_SIDED.replace("run.alpha = 0.05", "run.lambda = 1e30"),
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, plant, message",
        [
            # at n2 = 1e6 rounding alone moves B by more than the stated
            # error, so no rule up to the cap is certified
            (
                VARIANCE_RATIO_HUGE_N2 + "run.alpha = 0.05\n",
                None,
                "no Gauss-Legendre rule of up to 512 nodes",
            ),
            (
                VARIANCE_RATIO_MODEL + "\nrun.alpha = 0.05\n",
                integrate.QuadratureError("planted"),
                "planted",
            ),
        ],
        ids=["integrity", "quadrature"],
    )
    def test_numerical_failure_exit_4(self, tmp_path, monkeypatch, capsys, text, plant, message):
        if plant is not None:
            def raising(self, f):
                raise plant

            monkeypatch.setattr(bf.VarianceRatioBf, "__call__", raising)
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("power", VARIANCE_RATIO_HUGE_N2 + "run.alpha = 0.05\nrun.seed = 1\n", "no Gauss-Legendre rule"),
            # draws at theta = 400 have F near 1, where B is about e^950
            (
                "verify",
                "problem.kind = variance_ratio\nproblem.n1 = 10\nproblem.n2 = 3000\n"
                "prior.kind = shifted_exponential\nrun.alpha = 0.05\nrun.seed = 1\nrun.n_sims = 50\n"
                "run.theta_grid = 400\n",
                "outside the normal float range",
            ),
        ],
        ids=["rule_cap", "float_range"],
    )
    def test_variance_ratio_failure_names_config_keys(self, tmp_path, capsys, command, text, message):
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "problem.n2" in err and "prior.rate" in err and "adaptive" not in err

    def test_variance_ratio_lambda_at_large_n2(self, tmp_path):
        # 1.69236355360243 is mpmath's B(gamma) at 30 digits
        text = (
            "problem.kind = variance_ratio\nproblem.n1 = 10\nproblem.n2 = 3000\n"
            "prior.kind = shifted_exponential\nprior.rate = 1.0\nrun.alpha = 0.05\n"
        )
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", write_config(tmp_path, "c.cfg", text), "--out", out]) == 0
        lam = float(read_csv(os.path.join(out, "calibration.csv"))[0]["lambda"])
        assert abs(lam / 1.69236355360243 - 1) <= bf.VARIANCE_RATIO_RTOL

    def test_observed_data_reported(self, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text("x\n1.0\n2.0\n0.5\n1.5\n")
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + "problem.data = x.csv\n")
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        row = read_csv(os.path.join(out, "calibration.csv"))[0]
        assert abs(float(row["stat"]) - 5.0) < 1e-12
        assert row["reject"] == "1"  # 5.0 > 3.2897

    @pytest.mark.parametrize(
        "x, prior, expected",
        [
            # n = 4, precision 1: B = 2 sqrt(1/5) exp(z^2/2) ndtr(z), z = t/sqrt(5)
            ("-21.25", "half_normal\nprior.precision = 1",
             lambda t: 2 / mpmath.sqrt(5) * _mills(t / mpmath.sqrt(5))),
            # n = 4, rate 1: B = sqrt(2 pi/4) exp(z^2/2) ndtr(z), z = (t - 1)/2
            ("-21.25", "exponential\nprior.rate = 1",
             lambda t: mpmath.sqrt(mpmath.pi / 2) * _mills((t - 1) / 2)),
            # n = 4, precision 0.01, t = -75.5: z^2/2 = 710.8 overflows the exp
            # alone while the coefficient 0.0999 keeps the product in range
            ("-18.875", "half_normal\nprior.precision = 0.01",
             lambda t: 2 * mpmath.sqrt(mpmath.mpf("0.01") / mpmath.mpf("4.01"))
             * _mills(t / mpmath.sqrt(mpmath.mpf("4.01")))),
        ],
        ids=["half_normal", "exponential", "half_normal_small_precision"],
    )
    def test_one_sided_closed_form_far_below_the_null(self, tmp_path, x, prior, expected):
        # far below the null, exp(z^2/2) overflows a float, yet B is a
        # finite number near 0.001 to 0.01
        (tmp_path / "x.csv").write_text("x\n" + f"{x}\n" * 4)
        text = ("problem.kind = one_sided_normal\nproblem.n = 4\nproblem.data = x.csv\n"
                f"prior.kind = {prior}\nrun.alpha = 0.05\n")
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", write_config(tmp_path, "c.cfg", text), "--out", out]) == 0
        row = read_csv(os.path.join(out, "calibration.csv"))[0]
        b = float(row["bayes_factor"])
        with mpmath.workdps(40):
            reference = float(expected(4 * mpmath.mpf(x)))
        assert math.isfinite(b) and abs(b - reference) <= 1e-12 * reference
        assert row["reject"] == "0"

    def test_missing_data_file_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + "problem.data = nope.csv\n")
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_strong_evidence_t_test_matches_closed_form(self, tmp_path):
        n = 30
        z = np.linspace(-1.0, 1.0, n)
        x = 1.0 + 0.0322 * z / z.std(ddof=1)  # t = sqrt(30) / 0.0322, about 170
        (tmp_path / "x.csv").write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        cfg = write_config(
            tmp_path,
            "c.cfg",
            "problem.kind = t_test\nproblem.n = 30\nproblem.data = x.csv\n"
            "prior.kind = gaussian_scale\nrun.alpha = 0.05\n",
        )
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        row = read_csv(os.path.join(out, "calibration.csv"))[0]
        assert 160 < float(row["stat"]) < 180
        # B = (1+n)^{-1/2} (1 - n^2 u/(n+1))^{-n/2} with u = xbar^2 / sum(x^2)
        u = x.mean() ** 2 / np.sum(x**2)
        expected = (1 + n) ** -0.5 * (1 - n * n * u / (n + 1)) ** (-n / 2)
        assert_allclose(float(row["bayes_factor"]), expected, rtol=1e-9)


T_TEST_N2 = "problem.kind = t_test\nproblem.n = 2\nprior.kind = gaussian_scale\nrun.alpha = 0.05\n"


class TestTAtOne:
    """T = n xbar^2 / sum(x^2) rounds to 1 once F passes about 9e15; B is
    finite there (its F -> inf limit), so the run goes on."""

    def test_calibrate_on_data_at_the_limit(self, tmp_path):
        (tmp_path / "x.csv").write_text("x\n100000000\n100000000.0000000149\n")
        cfg = write_config(tmp_path, "c.cfg", T_TEST_N2 + "problem.data = x.csv\n")
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        (row,) = read_csv(os.path.join(out, "calibration.csv"))
        # kappa ((1+c)/c)^{n/2} with n = 2, c = 1/2: sqrt(1/3) * 3
        assert row["bayes_factor"] == "1.73205080757" and row["reject"] == "1"

    def test_power_with_draws_at_the_limit(self, tmp_path):
        text = T_TEST_N2 + "run.theta_grid = 0, 10000\nrun.n_sims = 100000\n"
        out = str(tmp_path / "out")
        assert main(["power", "--config", write_config(tmp_path, "c.cfg", text), "--out", out, "--seed", "7"]) == 0
        rows = read_csv(os.path.join(out, "power.csv"))
        assert [r["power"] for r in rows if r["method"] == "mc_bayes"][1] == "1"


class TestBadConfigValues:
    """A bad value exits 1 with the key and its path:line, not a traceback."""

    def test_alpha_outside_unit_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED.replace("0.05", "1.5"))
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"{cfg}:6: run.alpha" in capsys.readouterr().err

    def test_lambda_on_two_sided_problem(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            "problem.kind = two_sided_normal\nprior.kind = normal\n"
            "prior.precision = 1.0\nrun.lambda = 3.0\n",
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"{cfg}:4: run.lambda" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, model, theta, bound",
        [
            ("power", "problem.kind = regression_known_var\nproblem.p = 2\nproblem.n = 10\n"
             "prior.kind = gaussian_spherical", "0.5, -1", ">= 0"),
            ("power", "problem.kind = subset_selection\nproblem.n = 20\nproblem.p1 = 1\nproblem.p2 = 2\n"
             "prior.kind = conjugate", "-1", ">= 0"),
            ("verify", "problem.kind = regression_unknown_var\nproblem.p = 2\nproblem.n = 10\n"
             "prior.kind = gaussian_spherical", "-1", ">= 0"),
            ("power", VARIANCE_RATIO_MODEL, "0", "> 0"),
            ("power", VARIANCE_RATIO_MODEL, "-1", "> 0"),
            ("dominance", SUBJECTIVE_MODEL, "-1", "> 0"),
        ],
        ids=["regression_known_var", "subset_selection", "regression_unknown_var", "variance_ratio_0",
             "variance_ratio_negative", "dominance"],
    )
    def test_theta_outside_the_problem_domain(self, tmp_path, capsys, command, model, theta, bound):
        text = f"{model}\nrun.alpha = 0.05\nrun.seed = 1\nrun.n_sims = 200\nrun.theta_grid = {theta}\n"
        cfg, out = write_config(tmp_path, "c.cfg", text), tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        line = model.count("\n") + 5
        assert err == f"error: {cfg}:{line}: run.theta_grid must be {bound}, got {theta.split(', ')[-1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, line, expected",
        [
            (ONE_SIDED_MODEL.replace("1.0", "-1"), 4, "> 0.0, got -1"),
            (ONE_SIDED_MODEL.replace("1.0", "0"), 4, "> 0.0, got 0"),
            ("problem.kind = variance_ratio\nproblem.n1 = 5\nproblem.n2 = 5\nprior.kind = point_mass\n"
             "prior.theta1 = 1", 5, "> 1, got 1"),
        ],
        ids=["one_sided_below_the_null", "one_sided_at_the_null", "variance_ratio_at_the_null"],
    )
    def test_point_mass_on_the_null_side(self, tmp_path, capsys, model, line, expected):
        # B is then decreasing or constant in the statistic, so {B > lambda}
        # is not the upper critical region
        cfg, out = write_config(tmp_path, "c.cfg", f"{model}\nrun.alpha = 0.05\n"), tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: prior.theta1 must be {expected}\n"
        assert not out.exists()

    def test_list_bounds_apply_to_each_entry(self):
        assert cli._check([1.0, 0.0], "x", list, ">= 0") == [1.0, 0.0]
        with pytest.raises(cli.ConfigError, match="x must be >= 0, got -2.0"):
            cli._check([1.0, -2.0], "x", list, ">= 0")

    def test_non_numeric_theta_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.cfg", ONE_SIDED + "run.seed = 1\nrun.theta_grid = 0.1, abc\n"
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"{cfg}:8: run.theta_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("problem.n = 4", "problem.n = four", ":3: problem.n must be an integer"),
            ("problem.n = 4", "problem.n = -3", ":2: problem.kind 'one_sided_normal'"),
            (
                "problem.n = 4",
                "problem.n = 4\nproblem.theta0 = nan",
                ":4: problem.theta0 must be a finite number",
            ),
            ("prior.theta1 = 1.0", "prior.theta1 = x", ":5: prior.theta1 must be a finite number"),
        ],
    )
    def test_bad_problem_or_prior_value(self, tmp_path, capsys, old, new, expected):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED.replace(old, new))
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"{cfg}{expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, old, new, expected",
        [
            ("verify", "run.alpha = 0.05", "run.alpha = 0.05\nrun.seed = -3", ":7: run.seed"),
            ("verify", "", "", ": run.seed"),
            ("calibrate", "run.alpha = 0.05", "run.alpha = 0.05\nrun.lambda = 2.0", ":7: run.lambda"),
            ("calibrate", "prior.theta1 = 1.0\n", "", ": prior.theta1"),
            ("dominance", "run.alpha = 0.05", "run.alpha = 0.05\nrun.seed = 1", ":2: problem.kind"),
            ("johnson", "run.alpha = 0.05", "run.alpha = 0.05\nrun.seed = 1", ": run.lambda"),
            *(
                (command, "run.alpha = 0.05", f"run.alpha = 0.05\nrun.seed = 1\n{line}", expected)
                for command, line, expected in [
                    ("verify", "run.theta_grid = nan", ":8: run.theta_grid"),
                    ("verify", "run.theta_grid = 0.5, inf", ":8: run.theta_grid"),
                    ("power", "run.theta_grid = nan", ":8: run.theta_grid"),
                    ("power", "run.theta_grid = inf", ":8: run.theta_grid"),
                    ("verify", "run.n_sims = inf", ":8: run.n_sims"),
                    ("verify", "run.n_sims = 2.5", ":8: run.n_sims"),
                    ("props", "run.n_trials = 2.5", ":8: run.n_trials"),
                    ("calibrate", "problem.data = 5", ":8: problem.data"),
                    ("calibrate", "run.out = 7", ":8: run.out"),
                    ("johnson", "run.lambda = nan", ":8: run.lambda"),
                    ("johnson", "run.lambda = 0.5", ":8: run.lambda"),
                    ("johnson", "run.lambda = 10\nproblem.n = 0", ":9: problem.n"),
                    ("verify", "run.n_sim = 10", ":8: run.n_sim"),
                    ("johnson", "run.lambda = 1", ":8: run.lambda"),
                    ("johnson", "run.lambda = 10\nproblem.kind = t_test", ":9: problem.kind"),
                    ("johnson", "run.lambda = 10", ":4: prior.kind"),
                    ("calibrate", "run.n_sims = abc", ":8: run.n_sims must be an integer"),
                    ("calibrate", "run.theta_grid = nan", ":8: run.theta_grid must be finite numbers"),
                    ("calibrate", "run.n_trials = 2.5", ":8: run.n_trials is not read by calibrate"),
                    ("verify", "problem.data = 5", ":8: problem.data must be text"),
                    ("verify", "problem.data = nope.csv", ":8: problem.data: data file not found"),
                    ("props", "run.n_sims = abc", ":2: problem.kind is not read by props"),
                ]
            ),
            ("calibrate", "run.alpha = 0.05", "run.lambda = nan", ":6: run.lambda"),
            ("verify", "run.alpha = 0.05", "run.lambda = nan\nrun.seed = 1", ":6: run.lambda"),
            ("calibrate", ONE_SIDED_MODEL, VARIANCE_RATIO_MODEL + "\nproblem.data1 = 3", ":7: problem.data1"),
            ("calibrate", ONE_SIDED_MODEL, VARIANCE_RATIO_MODEL.replace("1.5", "-1"), ":6: prior.rate"),
            ("calibrate", "problem.n = 4", "problem.n = 4\nproblem.theta_0 = 1.0", ":4: problem.theta_0"),
            (
                "calibrate",
                ONE_SIDED_MODEL,
                "problem.kind = regression_known_var\nproblem.p = 3\nproblem.n = 20\n"
                "prior.kind = gaussian_spherical\nprior.precison = 4.0",
                ":6: prior.precison",
            ),
            (
                "dominance",
                ONE_SIDED_MODEL,
                "problem.kind = subjective_variance\nproblem.n1 = 10\nproblem.n2 = 10\n"
                "prior.kind = point_mass\nrun.seed = 1",
                ":5: prior.kind",
            ),
            (
                "calibrate",
                ONE_SIDED_MODEL,
                SUBJECTIVE_MODEL.replace("prior.kind", "problem.a = 2.0\nprior.kind"),
                ":5: problem.a is not read by calibrate",
            ),
            (
                "calibrate",
                ONE_SIDED_MODEL,
                SUBJECTIVE_MODEL.replace("gamma", ""),
                ":5: prior.kind '' is unsupported for subjective_variance",
            ),
            # a repeated key is an error, not a silent override
            ("calibrate", "run.alpha = 0.05", "run.alpha = 0.05\nrun.alpha = 0.5", ":7: run.alpha already set on line 6"),
            # the two johnson rows above that set problem.n and problem.kind
            # twice stop at the repeat; these set each key once
            (
                "johnson",
                ONE_SIDED_MODEL,
                "problem.kind = one_sided_normal\nproblem.n = 0\nrun.lambda = 10\nrun.seed = 1",
                ":3: problem.n must be >= 1",
            ),
            (
                "johnson",
                ONE_SIDED_MODEL,
                "problem.kind = t_test\nproblem.n = 4\nrun.lambda = 10\nrun.seed = 1",
                ":2: problem.kind must be one_sided_normal for johnson",
            ),
            # run.n_sims is read before the two-sided point mass fails calibration (exit 3)
            (
                "verify",
                ONE_SIDED_MODEL,
                ONE_SIDED_MODEL.replace("one_sided", "two_sided") + "\nrun.seed = 1\nrun.n_sims = 0",
                ":7: run.n_sims",
            ),
        ],
    )
    def test_error_starts_with_location(self, tmp_path, capsys, command, old, new, expected):
        # path:line of the offending key, or the path alone when it is absent
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED.replace(old, new))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}{expected}")

    @pytest.mark.parametrize(
        "command, text, line, key",
        [
            (command, ONE_SIDED + "run.seed = 1\nrun.n_sims = 200\nrun.theta_grid = 0.5\nrun.n_trials = 5\n",
             10, "run.n_trials")
            for command in ("calibrate", "verify", "power")
        ] + [
            (
                "dominance",
                SUBJECTIVE_MODEL + "\nrun.seed = 1\nrun.n_sims = 200\nrun.lambda = 3.0\n",
                7,
                "run.lambda",
            ),
            (
                "johnson",
                "problem.kind = one_sided_normal\nproblem.n = 10\nrun.lambda = 10\n"
                "run.seed = 1\nrun.n_sims = 200\nrun.n_trials = 5\n",
                6,
                "run.n_trials",
            ),
            ("props", "run.n_trials = 2\nrun.n_sims = 10\n", 2, "run.n_sims"),
        ],
        ids=COMMANDS,
    )
    def test_key_the_subcommand_does_not_read(self, tmp_path, capsys, command, text, line, key):
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {key} is not read by {command}\n"
        assert not out.exists(), "a rejected config left its output directory behind"

    def test_config_seed_checked_under_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + "run.seed = -3\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:7: run.seed must be >= 0")

    def test_non_numeric_n_trials(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.cfg", "run.n_trials = abc\n")
        assert main(["props", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"{cfg}:1: run.n_trials" in capsys.readouterr().err

    def test_nonpositive_prior_precision(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            ONE_SIDED.replace("prior.kind = point_mass", "prior.kind = half_normal").replace(
                "prior.theta1 = 1.0", "prior.precision = -2.0"
            ),
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "prior.precision must be > 0" in capsys.readouterr().err


REPO = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(REPO, "README.md")


def _shipped_runs():
    """(command, config) of every benchmark op that reads a config, and the
    README example under each subcommand the README says it serves."""
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(REPO, "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    ops = [op for workload in bench.WORKLOADS for op in bench.workload_ops(workload)]
    runs = [(op["command"], op["config"]) for op in ops if op["config"]]
    return runs + [(command, README) for command in ("calibrate", "verify", "power")]


class _StudyReached(Exception):
    pass


@pytest.mark.parametrize(
    "command, path", _shipped_runs(), ids=lambda v: os.path.relpath(v, REPO) if os.sep in v else v
)
def test_shipped_configs_are_accepted(tmp_path, monkeypatch, command, path):
    # the subcommand reads every key of the config: it gets past its
    # check_read to the study, which is stubbed so that no draws run
    # (calibrate has no study and runs to the end)
    def study(*args, **kwargs):
        raise _StudyReached

    for name in ("verify_equivalence", "mc_power", "dominance_study", "johnson_comparison", "run_catalogue"):
        monkeypatch.setattr(cli, name, study)
    if path == README:
        with open(path) as fh:
            example = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        path = write_config(tmp_path, "readme.cfg", example)
    argv = [command, "--config", path, "--out", str(tmp_path), "--seed", "1"]
    if command == "calibrate":
        assert main(argv) == 0
    else:
        with pytest.raises(_StudyReached):
            main(argv)


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify", ONE_SIDED + "run.seed = 1\nrun.n_sims = 200\n"),
        ("power", ONE_SIDED + "run.seed = 1\nrun.n_sims = 200\nrun.theta_grid = 0.5\n"),
        ("dominance", SUBJECTIVE_MODEL + "\nrun.seed = 1\nrun.n_sims = 200\n"),
        ("johnson", "problem.kind = one_sided_normal\nproblem.n = 10\nrun.lambda = 10\nrun.seed = 1\n"),
        ("props", "run.n_trials = 2\n"),
    ],
    ids=COMMANDS[1:],
)
def test_out_that_cannot_be_made_fails_before_the_study(tmp_path, monkeypatch, capsys, command, text):
    # --out names a file, so making the directory fails, and it fails
    # before the (stubbed) study would have run its draws
    def study(*args, **kwargs):
        raise _StudyReached

    for name in ("verify_equivalence", "mc_power", "dominance_study", "johnson_comparison", "run_catalogue"):
        monkeypatch.setattr(cli, name, study)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, "--config", write_config(tmp_path, "c.cfg", text), "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out: cannot make directory") and err.count("\n") == 1


def test_run_out_that_cannot_be_made_names_its_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + f"run.out = {blocker}\n")
    assert main(["calibrate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:7: run.out: cannot make directory")


@pytest.mark.parametrize(
    "text, code",
    [
        (ONE_SIDED.replace("run.alpha = 0.05", "run.lambda = 1e30"), 2),
        (ONE_SIDED.replace("one_sided_normal", "two_sided_normal").replace("1.0", "0.7"), 3),
    ],
    ids=["infeasible_lambda", "class_violation"],
)
def test_failed_calibration_leaves_no_output_directory(tmp_path, text, code):
    out = tmp_path / "out"
    assert main(["calibrate", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize(
    "command, model, alpha",
    [
        ("calibrate", TWO_SAMPLE_T_MODEL, "1e-300"),
        ("verify", TWO_SAMPLE_T_MODEL, "1e-17"),
        # two-tailed, so 1 - alpha/2 rounds to 1 although 1 - alpha does not
        ("power", TWO_SAMPLE_T_MODEL, "1.1e-16"),
        ("calibrate", ONE_SIDED_MODEL, "1e-17"),
        ("dominance", SUBJECTIVE_MODEL, "1e-300"),
        ("johnson", JOHNSON_MODEL, "1e-17"),
    ],
    ids=["calibrate", "verify", "power", "calibrate_one_sided", "dominance", "johnson"],
)
def test_alpha_whose_quantile_rounds_to_one_exits_1(tmp_path, capsys, command, model, alpha):
    cfg, out = write_config(tmp_path, "c.cfg", f"{model}\nrun.alpha = {alpha}\nrun.seed = 1\n"), tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{model.count(chr(10)) + 2}: run.alpha is too small")
    assert err.count("\n") == 1 and not out.exists()


def test_one_sided_alpha_at_its_floor_calibrates(tmp_path):
    # 1 - 1.1e-16 rounds to the largest float below 1, while 1 - 1.1e-16/2
    # rounds to 1: an upper region needs no alpha/2
    cfg = write_config(tmp_path, "c.cfg", f"{ONE_SIDED_MODEL}\nrun.alpha = 1.1e-16\n")
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("alpha", ["1.2e-16", "2.3e-16", "1e-9"])
@pytest.mark.parametrize("command", ["calibrate", "power"])
def test_two_tailed_alpha_that_breaks_the_mirror_exits_1(tmp_path, capsys, command, alpha):
    # 1 - alpha/2 is below 1 but rounds far enough that the upper tail is
    # not alpha/2, so B differs at the two critical values: the error
    # names run.alpha, not the prior
    cfg, out = write_config(tmp_path, "c.cfg", f"{TWO_SAMPLE_T_MODEL}\nrun.alpha = {alpha}\nrun.seed = 1\n"), tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:5: run.alpha is too small: 1 - alpha/2 rounds to")
    assert err.count("\n") == 1 and not out.exists()


def test_two_tailed_alpha_with_an_exact_mirror_calibrates(tmp_path):
    # alpha/2 = 2**-53: 1 - alpha/2 is a float, so the mirror is exact
    cfg = write_config(tmp_path, "c.cfg", f"{TWO_SAMPLE_T_MODEL}\nrun.alpha = 2.220446049250313e-16\n")
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("alpha", ["2.220446049250313e-16", "1e-3"])
def test_power_far_below_the_null_exits_0(tmp_path, alpha):
    # the default grid reads the noncentral t CDF where scipy's nctdtr is
    # nan (nctdtr(25, 5.16, -5.0)); its limit 0 there gives a finite curve
    text = f"{TWO_SAMPLE_T_MODEL}\nrun.alpha = {alpha}\nrun.seed = 1\nrun.n_sims = 200\n"
    out = tmp_path / "out"
    assert main(["power", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == 0
    rows = read_csv(out / "power.csv")
    assert len(rows) == 63 and all(math.isfinite(float(r["power"])) for r in rows)


@pytest.mark.parametrize(
    "model, theta0",
    [
        ("problem.kind = subset_selection\nproblem.n = 3\nproblem.p1 = 0\nproblem.p2 = 2\n"
         "prior.kind = conjugate", 0.0),
        ("problem.kind = regression_unknown_var\nproblem.p = 2\nproblem.n = 3\n"
         "prior.kind = gaussian_spherical", 0.0),
        ("problem.kind = variance_ratio\nproblem.n1 = 2\nproblem.n2 = 2\n"
         "prior.kind = point_mass\nprior.theta1 = 2", 1.0),
        ("problem.kind = variance_ratio\nproblem.n1 = 3\nproblem.n2 = 3\n"
         "prior.kind = point_mass\nprior.theta1 = 2", 1.0),
    ],
    ids=["subset_selection", "regression_unknown_var", "variance_ratio_2", "variance_ratio_3"],
)
def test_default_grid_where_power_stays_below_099_ends_at_the_cap(tmp_path, model, theta0):
    # with few degrees of freedom the classical power is below 0.99 still
    # at theta0 + 1024, the last point the default grid tries
    text = f"{model}\nrun.alpha = 0.05\nrun.seed = 1\nrun.n_sims = 2000\n"
    out = tmp_path / "out"
    assert main(["power", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == 0
    exact = [r for r in read_csv(out / "power.csv") if r["method"] == "exact"]
    assert len(exact) == 21 and float(exact[-1]["theta"]) == theta0 + 1024
    assert float(exact[-1]["power"]) < 0.99


@pytest.mark.parametrize(
    "model",
    ["problem.kind = t_test\nproblem.n = 2\nprior.kind = gaussian_scale",
     "problem.kind = one_sided_normal\nproblem.n = 4\nprior.kind = half_normal\nprior.precision = 2.0"],
    ids=["t_test", "one_sided_normal"],
)
def test_default_grid_above_alpha_099_reaches_power_above_alpha(tmp_path, model):
    # the classical power starts at alpha = 0.999, above 0.99, so the grid
    # ends at power (1 + alpha)/2 in place of 0.99
    text = f"{model}\nrun.alpha = 0.999\nrun.seed = 1\nrun.n_sims = 2000\n"
    out = tmp_path / "out"
    assert main(["power", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == 0
    power = [float(r["power"]) for r in read_csv(out / "power.csv") if r["method"] == "exact"]
    assert len(power) == 21 and power == sorted(power)
    assert power[0] == pytest.approx(0.999) and power[-1] == pytest.approx(0.9995)


def test_lambda_where_b_underflows_below_it_inverts(tmp_path, capsys):
    # B of this point mass is 0 in floats over the lower part of the
    # bracket, so the root search meets two equal values of B - lambda
    text = ("problem.kind = one_sided_normal\nproblem.n = 28\nproblem.theta0 = 0.5755642078448213\n"
            "prior.kind = point_mass\nprior.theta1 = 5.493880674407275\nrun.lambda = 1.9019115212643883e-130\n")
    out = tmp_path / "out"
    assert main(["calibrate", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("gamma = 24.2414468584  ")


def test_nan_exact_power_exits_4_before_the_output_directory(tmp_path, capsys, monkeypatch):
    # the default grid is built before the output directory is made, and
    # a power that is not a number is one error line with exit 4
    from bfequiv.problems import TwoSampleMeansUnknownEqualVar

    monkeypatch.setattr(TwoSampleMeansUnknownEqualVar, "alt_cdf", lambda self, theta, x: np.nan)
    text = f"{TWO_SAMPLE_T_MODEL}\nrun.alpha = 0.05\nrun.seed = 1\n"
    out = tmp_path / "out"
    assert main(["power", "--config", write_config(tmp_path, "c.cfg", text), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the exact power at theta = ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "verify", "power"])
def test_subjective_variance_with_unequal_samples_exits_1(tmp_path, capsys, command):
    text = SUBJECTIVE_MODEL.replace("problem.n2 = 10", "problem.n2 = 11") + "\nrun.alpha = 0.05\nrun.seed = 1\n"
    cfg, out = write_config(tmp_path, "c.cfg", text), tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: problem.n2 must equal problem.n1")
    assert not out.exists()


def test_dominance_with_unequal_samples_exits_1(tmp_path, capsys):
    text = SUBJECTIVE_MODEL.replace("problem.n2 = 10", "problem.n2 = 11") + "\nrun.seed = 1\n"
    cfg, out = write_config(tmp_path, "c.cfg", text), tmp_path / "out"
    assert main(["dominance", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: problem.n2 must equal problem.n1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "power"])
def test_subjective_variance_verify_and_power_point_to_dominance(tmp_path, capsys, command):
    # the proper nuisance prior rejects on a strict subset of {T > gamma},
    # so these two subcommands could never pass on this kind
    text = SUBJECTIVE_MODEL + "\nrun.alpha = 0.05\nrun.seed = 3\nrun.n_sims = 2000\n"
    cfg, out = write_config(tmp_path, "c.cfg", text), tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:1: problem.kind subjective_variance cannot pass {command}")
    assert "run dominance instead" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["calibrate"], ["no-such-command"], ["props", "--seed", "x"], ["props", "--no-such-flag"]],
    ids=["missing_config", "unknown_subcommand", "bad_seed", "unknown_flag"],
)
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bfequiv") and err.count("\n") == 1


def write_data(tmp_path, name, columns):
    """A CSV data file with one column per entry of ``columns``."""
    names = list(columns)
    rows = zip(*(columns[key] for key in names))
    text = ",".join(names) + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    (tmp_path / name).write_text(text)


RNG = np.random.default_rng(7)
TWO_SAMPLES = "problem.n1 = 12\nproblem.n2 = 15\nproblem.data1 = x1.csv\nproblem.data2 = x2.csv\n"


T_TEST_N4 = "problem.kind = t_test\nproblem.n = 4\nproblem.data = x.csv\nprior.kind = gaussian_scale"


class TestObservedData:
    """Data that does not fit the declared problem exits 1 with the path:line
    of its data key, not with a wrong statistic or a traceback."""

    @pytest.mark.parametrize(
        "model, data, expected",
        [
            (
                "problem.kind = t_test\nproblem.n = 30\nproblem.data = x.csv\nprior.kind = gaussian_scale",
                {"x.csv": {"x": RNG.normal(size=50)}},
                ":3: problem.data: x.csv has 50 rows, not problem.n = 30",
            ),
            (
                "problem.kind = two_sample_t\n" + TWO_SAMPLES + "prior.kind = conjugate",
                {"x1.csv": {"x": RNG.normal(size=8)}, "x2.csv": {"x": RNG.normal(size=50)}},
                ":4: problem.data1: x1.csv has 8 rows, not problem.n1 = 12",
            ),
            (
                "problem.kind = variance_ratio\n" + TWO_SAMPLES + "prior.kind = point_mass\nprior.theta1 = 2.0",
                {"x1.csv": {"x": RNG.normal(size=8)}, "x2.csv": {"x": RNG.normal(size=50)}},
                ":4: problem.data1: x1.csv has 8 rows, not problem.n1 = 12",
            ),
            (
                "problem.kind = variance_ratio\n" + TWO_SAMPLES + "prior.kind = point_mass\nprior.theta1 = 2.0",
                {"x1.csv": {"x": RNG.normal(size=12)}, "x2.csv": {"x": RNG.normal(size=50)}},
                ":5: problem.data2: x2.csv has 50 rows, not problem.n2 = 15",
            ),
            (
                "problem.kind = subset_selection\nproblem.n = 40\nproblem.p1 = 2\nproblem.p2 = 3\n"
                "problem.data = d.csv\nprior.kind = conjugate",
                {"d.csv": {key: RNG.normal(size=12) for key in ("y", "x1", "x2", "z1", "z2", "z3")}},
                ":5: problem.data: d.csv has 12 rows, not problem.n = 40",
            ),
            (
                "problem.kind = t_test\nproblem.n = 30\nproblem.data = x.csv\nprior.kind = gaussian_scale",
                {"x.csv": {"x": np.full(30, 1.5)}},
                ":3: problem.data: zero sample variance",
            ),
            (
                "problem.kind = regression_known_var\nproblem.p = 2\nproblem.n = 6\nproblem.data = d.csv\n"
                "prior.kind = gaussian_spherical",
                {"d.csv": {"y": RNG.normal(size=6), "x1": np.arange(6.0), "x2": 2.0 * np.arange(6.0)}},
                ":4: problem.data: design matrix is rank deficient",
            ),
            (
                # the tested covariate z1 is a multiple of the null covariate x1
                "problem.kind = subset_selection\nproblem.n = 8\nproblem.p1 = 1\nproblem.p2 = 2\n"
                "problem.data = d.csv\nprior.kind = conjugate",
                {"d.csv": {"y": RNG.normal(size=8), "x1": np.arange(8.0), "z1": 3.0 * np.arange(8.0),
                           "z2": RNG.normal(size=8)}},
                ":5: problem.data: design matrix is rank deficient",
            ),
            (
                T_TEST_N4,
                {"x.csv": {"x": [1.0, np.nan, 2.0, 0.5]}},
                ":3: problem.data: column 'x' of ",
            ),
            (
                T_TEST_N4,
                {"x.csv": {"x": [1.0, np.inf, 2.0, 0.5]}},
                ":3: problem.data: column 'x' of ",
            ),
            (
                # finite cells whose sums overflow
                T_TEST_N4,
                {"x.csv": {"x": [1e308, 1e308, -1e308, 0.5]}},
                ":3: problem.data: the decision statistic of the data is nan, not a finite number",
            ),
        ],
        ids=["t_test_rows", "two_sample_t_rows", "variance_ratio_rows1", "variance_ratio_rows2",
             "subset_selection_rows", "constant_column", "rank_deficient_design",
             "collinear_subset_design", "nan_cell", "inf_cell", "overflowing_sums"],
    )
    def test_bad_data_exit_1(self, tmp_path, capsys, model, data, expected):
        for name, columns in data.items():
            write_data(tmp_path, name, columns)
        cfg, out = write_config(tmp_path, "c.cfg", f"{model}\nrun.alpha = 0.05\n"), tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}{expected}") and err.count("\n") == 1
        assert not out.exists()

    def test_subset_selection_without_null_covariates(self, tmp_path):
        # p1 = 0: the null model has no covariates, so H1 = 0,
        # F = y'Hy / y'(I-H)y and the file holds only y, z1 and z2
        rng = np.random.default_rng(11)
        z = rng.normal(size=(12, 2))
        y = z @ [0.8, -0.5] + rng.normal(size=12)
        write_data(tmp_path, "d.csv", {"y": y, "z1": z[:, 0], "z2": z[:, 1]})
        cfg = write_config(
            tmp_path,
            "c.cfg",
            "problem.kind = subset_selection\nproblem.n = 12\nproblem.p1 = 0\nproblem.p2 = 2\n"
            "problem.data = d.csv\nprior.kind = conjugate\nrun.alpha = 0.05\n",
        )
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        (row,) = read_csv(os.path.join(out, "calibration.csv"))
        hat = z @ np.linalg.solve(z.T @ z, z.T)
        f = float(y @ hat @ y / (y @ (np.eye(12) - hat) @ y))
        assert_allclose(float(row["stat"]), f, rtol=1e-11)
        assert_allclose(float(row["bayes_factor"]), bf.SubsetSelectionBf(12, 2, 1.0).from_f(f), rtol=1e-11)


class TestVerifyCommand:
    def test_full_agreement_exit_0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "v.cfg",
            """
problem.kind = one_sided_normal
problem.n = 4
prior.kind = half_normal
prior.precision = 2.0
run.alpha = 0.05
run.seed = 11
run.n_sims = 20000
""",
        )
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        assert "agreement 20000/20000" in capsys.readouterr().out

    def test_missing_seed_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, "v.cfg", ONE_SIDED)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["verify", "power"])
    def test_mismatches_name_their_draws(self, tmp_path, monkeypatch, capsys, command):
        # lambda 1 % above B(gamma): draws just past gamma reject only classically
        planted, calibrate_rule = [], cli._calibrate

        def high_lambda(cfg, problem, alpha, of_stat):
            calibrated = calibrate_rule(cfg, problem, alpha, of_stat)
            rule = DecisionRule(calibrated.region, 1.01 * calibrated.lam)
            planted.append((rule, of_stat))
            return rule

        monkeypatch.setattr(cli, "_calibrate", high_lambda)
        cfg = write_config(
            tmp_path,
            "v.cfg",
            "problem.kind = t_test\nproblem.n = 12\nprior.kind = gaussian_scale\n"
            "run.alpha = 0.05\nrun.seed = 5\nrun.n_sims = 20000\nrun.theta_grid = 0\n",
        )
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 1
        lines = capsys.readouterr().out.splitlines()
        if command == "verify":
            (row,) = read_csv(os.path.join(out, "verify.csv"))
            n_mismatch = int(row["n_mismatch"])
            assert lines[0] == f"agreement {20000 - n_mismatch}/20000  ({n_mismatch} mismatches)"
            assert len(lines) == 1 + min(n_mismatch, MAX_EXAMPLES) > 1
        else:
            assert lines[0] == "WARNING: Bayes and classical decisions diverged"
            assert len(lines) == 1 + MAX_EXAMPLES
        ((rule, of_stat),) = planted
        for line in lines[1:]:
            head, stat = line.split(": statistic ")
            assert head == "  mismatch at theta = 0"
            x = float(stat)
            assert rule.classical(x) and not rule.bayes(of_stat(x)), line

    @pytest.mark.parametrize("command", ["verify", "power"])
    def test_zero_draws_exit_1(self, tmp_path, command, capsys):
        cfg = write_config(
            tmp_path, "v.cfg", ONE_SIDED + "run.seed = 1\nrun.n_sims = 0\nrun.theta_grid = 0.5\n"
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "run.n_sims" in capsys.readouterr().err


# draws at theta = 30000 put B past the float range: power exits 4 after
# it has made its output directory
VARIANCE_RATIO_OVERFLOW = (
    "problem.kind = variance_ratio\nproblem.n1 = 10\nproblem.n2 = 3000\nprior.kind = shifted_exponential\n"
    "prior.rate = 1\nrun.alpha = 0.05\nrun.seed = 1\nrun.n_sims = 50\nrun.theta_grid = 0.5, 1, 30000\n"
)


class TestFailedRunOutputDirectory:
    def test_directories_the_run_made_are_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", VARIANCE_RATIO_OVERFLOW)
        out = tmp_path / "made" / "out"
        assert main(["power", "--config", cfg, "--out", str(out)]) == 4
        assert "outside the normal float range" in capsys.readouterr().err
        assert not (tmp_path / "made").exists()
        assert tmp_path.is_dir()

    def test_a_directory_that_existed_is_kept(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", VARIANCE_RATIO_OVERFLOW)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["power", "--config", cfg, "--out", str(out)]) == 4
        assert out.is_dir() and not any(out.iterdir())


TWO_SAMPLE_KNOWN_VAR = """
problem.kind = two_sample_known_var
problem.n1 = 5
problem.n2 = 7
problem.tau2 = 2.0
prior.kind = conjugate
prior.c = 2.0
run.alpha = 0.05
run.seed = 13
run.n_sims = 20000
run.theta_grid = 0.0, 0.8, 1.6
"""


class TestTwoSampleKnownVariance:
    """verify and power on the one kind that only calibrate covered."""

    def test_verify_agrees_on_every_draw(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "k.cfg", TWO_SAMPLE_KNOWN_VAR)
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        assert "agreement 60000/60000" in capsys.readouterr().out
        (row,) = read_csv(os.path.join(out, "verify.csv"))
        assert row["n_mismatch"] == "0"

    def test_power_curves_identical_and_near_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "k.cfg", TWO_SAMPLE_KNOWN_VAR)
        out = str(tmp_path / "out")
        assert main(["power", "--config", cfg, "--out", out]) == 0
        assert "decision vectors identical" in capsys.readouterr().out
        rows = read_csv(os.path.join(out, "power.csv"))
        curve = {m: [r for r in rows if r["method"] == m] for m in ("exact", "mc_classical", "mc_bayes")}
        assert [r["power"] for r in curve["mc_bayes"]] == [r["power"] for r in curve["mc_classical"]]
        for exact, mc in zip(curve["exact"], curve["mc_classical"]):
            assert abs(float(mc["power"]) - float(exact["power"])) <= 5 * float(mc["se"])

    def test_power_with_perturbed_lambda_diverges(self, tmp_path, monkeypatch, capsys):
        calibrate = cli.calibrate

        def perturbed(problem, alpha, bf_of_stat):
            rule = calibrate(problem, alpha, bf_of_stat)
            return DecisionRule(rule.region, 1.5 * rule.lam)

        monkeypatch.setattr(cli, "calibrate", perturbed)
        cfg = write_config(tmp_path, "k.cfg", TWO_SAMPLE_KNOWN_VAR)
        assert main(["power", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "WARNING: Bayes and classical decisions diverged" in capsys.readouterr().out

    def test_lambda_below_the_minimum_of_b_exit_2(self, tmp_path, capsys):
        # B = sqrt(c/(1+c)) exp(kappa' T) >= 0.816 for T = (xbar1 - xbar2)^2 >= 0
        text = TWO_SAMPLE_KNOWN_VAR.replace("run.alpha = 0.05", "run.lambda = 0.5")
        cfg = write_config(tmp_path, "k.cfg", text)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "lambda = 0.5 is exceeded by B everywhere" in capsys.readouterr().err


class TestGaussianRoutes:
    """The CLI's closed forms against each other and the series oracles,
    on the range where the oracle's coefficients are accurate."""

    @pytest.mark.parametrize("n", [3, 12, 20])
    def test_t_test(self, n):
        pair = build_bf(GaussianMeanUnknownVar(n=n), RunConfig({"prior.kind": "gaussian_scale"}))
        oracle = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n)
        for t in (0.0, 0.7, -2.5, 6.0, 10.0):
            xbar = t / math.sqrt(n)
            s = SufficientSummary(xbar=xbar, sum_sq=(n - 1) + n * xbar**2)  # S = 1
            b = float(pair.of_summary(s))
            assert_allclose(float(pair.of_stat(t)), b, rtol=1e-9)
            assert_allclose(b, float(oracle(s.xbar, s.sum_sq)), rtol=1e-9)

    @pytest.mark.parametrize("p, n, tau", [(1, 20, 1.0), (3, 12, 0.5), (2, 8, 2.0)])
    def test_regression_unknown_var(self, p, n, tau):
        prior = RunConfig({"prior.kind": "gaussian_spherical", "prior.precision": tau})
        pair = build_bf(RegressionUnknownVar(p=p, n=n), prior)
        oracle = bf.RegressionUnknownVarBf(SphericalPrior.gaussian(p, tau), n)
        for t_hat in (0.0, 0.05, 0.3, 0.5):
            f = (t_hat / p) / ((1 - t_hat) / (n - p))
            b = float(pair.of_summary(SufficientSummary(yHy=3.0 * t_hat, yy=3.0)))
            assert_allclose(float(pair.of_stat(f)), b, rtol=1e-9)
            assert_allclose(b, float(oracle.series(t_hat)), rtol=1e-9)

    @pytest.mark.parametrize("p, tau", [(1, 1.0), (3, 0.5), (2, 1.0)])
    def test_regression_known_var(self, p, tau):
        prior = RunConfig({"prior.kind": "gaussian_spherical", "prior.precision": tau})
        pair = build_bf(RegressionKnownVar(p=p, n=p + 5), prior)
        oracle = bf.RegressionKnownVarBf(SphericalPrior.gaussian(p, tau))
        for t_abs in (0.0, 0.5, 8.0, 40.0):
            b = float(pair.of_summary(SufficientSummary(t_abs=t_abs)))
            assert_allclose(float(pair.of_stat(t_abs)), b, rtol=1e-9)
            assert_allclose(b, float(oracle.series(t_abs)), rtol=1e-9)


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "v.cfg",
            """
problem.kind = two_sample_t
problem.n1 = 5
problem.n2 = 7
prior.kind = conjugate
prior.c = 1.0
run.alpha = 0.05
run.seed = 3
run.n_sims = 5000
run.theta_grid = 0.0,0.5,1.0
""",
        )
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["power", "--config", cfg, "--out", out1]) == 0
        assert main(["power", "--config", cfg, "--out", out2]) == 0
        with open(os.path.join(out1, "power.csv"), "rb") as fh:
            blob1 = fh.read()
        with open(os.path.join(out2, "power.csv"), "rb") as fh:
            blob2 = fh.read()
        assert blob1 == blob2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "v.cfg",
            """
problem.kind = one_sided_normal
problem.n = 4
prior.kind = exponential
prior.rate = 1.0
run.alpha = 0.05
run.seed = 3
run.n_sims = 4000
run.theta_grid = 0.5
""",
        )
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["power", "--config", cfg, "--out", out1]) == 0
        assert main(["power", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
        rows1 = read_csv(os.path.join(out1, "power.csv"))
        rows2 = read_csv(os.path.join(out2, "power.csv"))
        mc1 = [r for r in rows1 if r["method"] == "mc_classical"]
        mc2 = [r for r in rows2 if r["method"] == "mc_classical"]
        assert mc1[0]["power"] != mc2[0]["power"]


IMPORT_GUARD = """
import json, sys
from bfequiv.cli import main

out, runs = sys.argv[1], json.loads(sys.argv[2])
for code, *argv in runs:
    assert main([*argv, "--out", out]) == code, argv
heavy = ("scipy.stats", "scipy.optimize", "scipy.integrate")
loaded = [h for h in heavy if any(m == h or m.startswith(h + ".") for m in sys.modules)]
assert not loaded, f"a subcommand imported {loaded}"
"""


def test_subcommands_import_no_scipy_stats_optimize_or_integrate(tmp_path):
    # importing scipy.stats, scipy.optimize or scipy.integrate is a large
    # share of each CLI process's start-up time and memory; distributions
    # evaluates every law without the first, and integrate carries the
    # root-finder, minimiser and quadrature that replace the other two
    common = "run.seed = 3\nrun.n_sims = 2000\n"
    configs = {
        "t": "problem.kind = t_test\nproblem.n = 12\nprior.kind = gaussian_scale\nrun.alpha = 0.05\n",
        "t2": "problem.kind = two_sample_t\nproblem.n1 = 5\nproblem.n2 = 8\nprior.kind = conjugate\n"
        "run.alpha = 0.05\n",
        "vr": VARIANCE_RATIO_MODEL + "\nrun.alpha = 0.05\n",
        "lambda": ONE_SIDED.replace("run.alpha = 0.05", "run.lambda = 3.0"),
        "dominance": SUBJECTIVE_MODEL + "\nrun.theta_grid = 2.0\n",
        "johnson": "problem.kind = one_sided_normal\nproblem.n = 10\nrun.lambda = 10\n",
    }
    paths = {name: write_config(tmp_path, f"{name}.cfg", text + common) for name, text in configs.items()}
    paths["props"] = write_config(tmp_path, "props.cfg", "run.n_trials = 2\nrun.seed = 3\n")
    # power without run.theta_grid searches its default grid with brentq,
    # and calibrate with run.lambda inverts B with it; each run is (exit
    # code, argv)
    runs = [
        [0, command, "--config", paths[name]]
        for name in ("t", "t2", "vr", "lambda")
        for command in ("calibrate", "verify", "power")
    ]
    runs += [[0, command, "--config", paths[command]] for command in ("dominance", "johnson", "props")]
    runs.append([0, "reproduce-sec6"])
    src = os.path.dirname(os.path.dirname(bfequiv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out"), json.dumps(runs)],
        env=env,
        check=True,
        timeout=300,
    )


class TestPropsCommand:
    def test_props_all_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.cfg", "run.n_trials = 10\nrun.seed = 0\n")
        out = str(tmp_path / "out")
        assert main(["props", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "props.txt"))
        rows = read_csv(os.path.join(out, "props.csv"))
        assert len(rows) == 6
        assert all(r["status"] == "PASS" for r in rows)

    def test_raising_property_is_a_fail(self, tmp_path, monkeypatch, capsys):
        def raising(q, t):
            raise ValueError("planted")

        monkeypatch.setattr(bf, "bf_subjective_variance", raising)
        cfg = write_config(tmp_path, "p.cfg", "run.n_trials = 3\nrun.seed = 0\n")
        out = str(tmp_path / "out")
        assert main(["props", "--config", cfg, "--out", out]) == 1
        failed = [r["name"] for r in read_csv(os.path.join(out, "props.csv")) if r["status"] == "FAIL"]
        assert failed == ["subjective_score_bounds"]
        with open(os.path.join(out, "props.txt")) as fh:
            assert "     ValueError: planted\n" in fh.read()
        assert "5/6 properties passed" in capsys.readouterr().out


class TestReproduceSection6:
    def test_table_and_scaling(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce-sec6", "--out", out]) == 0
        rows = read_csv(os.path.join(out, "reproduce_sec6.csv"))
        by_ratio = {float(r["n_over_tau"]): r for r in rows}
        assert abs(float(by_ratio[10000.0]["B_exact"]) - 1.483) < 0.01
        assert abs(float(by_ratio[100.0]["B_exact"]) - 14.06) < 0.01
        scaling = read_csv(os.path.join(out, "lambda_scaling.csv"))
        slope = float(scaling[0]["fitted_slope"])
        assert abs(slope + 0.5) < 0.02
        with open(os.path.join(out, "reproduce_sec6.txt")) as fh:
            assert fh.read().endswith("verdict: PASS\n")

    def test_config_is_a_usage_error(self, tmp_path, capsys):
        # the command reads no config, so a --config it would ignore is refused
        out = tmp_path / "out"
        assert main(["reproduce-sec6", "--config", "/nonexistent.ini", "--out", str(out), "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bfequiv: unrecognized arguments: --config") and err.count("\n") == 1
        assert not out.exists()

    def test_wrong_threshold_scaling_fails(self, tmp_path, monkeypatch):
        # lambda(n) ~ n^(-0.45): the fitted slope misses -1/2 by 0.05
        conjugate = bf.bf_one_sided_normal_conjugate
        monkeypatch.setattr(
            bf, "bf_one_sided_normal_conjugate", lambda t, n, tau: conjugate(t, n, tau) * n**0.05
        )
        out = str(tmp_path / "out")
        assert main(["reproduce-sec6", "--out", out]) == 1
        with open(os.path.join(out, "reproduce_sec6.txt")) as fh:
            assert fh.read().endswith("verdict: FAIL\n")
