import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bfequiv
from bfequiv import bayes_factors as bf
from bfequiv.cli import build_bf, main
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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_infeasible_lambda_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            ONE_SIDED.replace("run.alpha = 0.05", "run.lambda = 1e30"),
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_observed_data_reported(self, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text("x\n1.0\n2.0\n0.5\n1.5\n")
        cfg = write_config(tmp_path, "c.cfg", ONE_SIDED + "problem.data = x.csv\n")
        out = str(tmp_path / "out")
        assert main(["calibrate", "--config", cfg, "--out", out]) == 0
        row = read_csv(os.path.join(out, "calibration.csv"))[0]
        assert abs(float(row["stat"]) - 5.0) < 1e-12
        assert row["reject"] == "1"  # 5.0 > 3.2897

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
    def test_zero_draws_exit_1(self, tmp_path, command, capsys):
        cfg = write_config(
            tmp_path, "v.cfg", ONE_SIDED + "run.seed = 1\nrun.n_sims = 0\nrun.theta_grid = 0.5\n"
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "run.n_sims" in capsys.readouterr().err


class TestGaussianRoutes:
    """The CLI's closed forms against each other and the series oracles,
    on the range where the oracle's coefficients are accurate."""

    @pytest.mark.parametrize("n", [3, 12, 20])
    def test_t_test(self, n):
        pair = build_bf(GaussianMeanUnknownVar(n=n), {"kind": "gaussian_scale"})
        oracle = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n)
        for t in (0.0, 0.7, -2.5, 6.0, 10.0):
            xbar = t / math.sqrt(n)
            s = SufficientSummary(xbar=xbar, sum_sq=(n - 1) + n * xbar**2)  # S = 1
            b = float(pair.of_summary(s))
            assert_allclose(float(pair.of_stat(t)), b, rtol=1e-9)
            assert_allclose(b, float(oracle(s.xbar, s.sum_sq)), rtol=1e-9)

    @pytest.mark.parametrize("p, n, tau", [(1, 20, 1.0), (3, 12, 0.5), (2, 8, 2.0)])
    def test_regression_unknown_var(self, p, n, tau):
        prior = {"kind": "gaussian_spherical", "precision": tau}
        pair = build_bf(RegressionUnknownVar(p=p, n=n), prior)
        oracle = bf.RegressionUnknownVarBf(SphericalPrior.gaussian(p, tau), n)
        for t_hat in (0.0, 0.05, 0.3, 0.5):
            f = (t_hat / p) / ((1 - t_hat) / (n - p))
            b = float(pair.of_summary(SufficientSummary(yHy=3.0 * t_hat, yy=3.0)))
            assert_allclose(float(pair.of_stat(f)), b, rtol=1e-9)
            assert_allclose(b, float(oracle.series(t_hat)), rtol=1e-9)

    @pytest.mark.parametrize("p, tau", [(1, 1.0), (3, 0.5), (2, 1.0)])
    def test_regression_known_var(self, p, tau):
        prior = {"kind": "gaussian_spherical", "precision": tau}
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
import sys
from bfequiv.cli import main

out, configs = sys.argv[1], sys.argv[2:]
for cfg in configs:
    for command in ("calibrate", "verify", "power"):
        assert main([command, "--config", cfg, "--out", out]) == 0, (command, cfg)
assert "scipy.stats" not in sys.modules, "a subcommand imported scipy.stats"
"""


def test_subcommands_never_import_scipy_stats(tmp_path):
    # importing scipy.stats is a large share of each CLI process's start-up
    # time and memory, and distributions evaluates every law without it
    common = "run.alpha = 0.05\nrun.seed = 3\nrun.n_sims = 2000\n"
    configs = [
        write_config(
            tmp_path,
            "t.cfg",
            "problem.kind = t_test\nproblem.n = 12\nprior.kind = gaussian_scale\n" + common,
        ),
        write_config(
            tmp_path,
            "t2.cfg",
            "problem.kind = two_sample_t\nproblem.n1 = 5\nproblem.n2 = 8\nprior.kind = conjugate\n"
            + common,
        ),
    ]
    src = os.path.dirname(os.path.dirname(bfequiv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out"), *configs],
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
        assert len(rows) >= 12
        assert all(r["status"] == "PASS" for r in rows)


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
