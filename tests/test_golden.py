"""Golden outputs: nine tiny CLI runs must write byte-identical files.

The exit code of each run and the sha256 of every file it writes are
pinned, so any drift in a verdict or in the CSV, text or SVG outputs
fails the ordinary test suite.  The pins hold only for the numpy and
scipy versions they were taken with.  Each run pins what the benchmark
ops of `manifest.json` do not: observed data that no bench config
calibrates, or a `power` or `dominance` SVG at a few thousand draws.
"""

import hashlib
import os

import numpy as np
import pytest
import scipy

from bfequiv.cli import main

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="hashes pinned to numpy 2.4.6 and scipy 1.17.1",
)

# (command, config, data files, exit code, {output file: sha256})
RUNS = {
    "calibrate_variance_ratio_data": (
        "calibrate",
        "problem.kind = variance_ratio\nproblem.n1 = 5\nproblem.n2 = 6\n"
        "problem.data1 = x1.csv\nproblem.data2 = x2.csv\n"
        "prior.kind = shifted_exponential\nprior.rate = 1.5\nrun.alpha = 0.05\n",
        {
            "x1.csv": "x\n0.3\n-1.2\n2.5\n0.8\n-2.9\n",
            "x2.csv": "x\n0.1\n-0.4\n0.6\n0.2\n-0.3\n0.5\n",
        },
        0,
        {
            "calibration.csv": "dc2076bbbac4602b0719e51243c8e77a4848e0f494cd5ca71cbbb85db946c89b",
        },
    ),
    "power_two_sample_t": (
        "power",
        "problem.kind = two_sample_t\nproblem.n1 = 6\nproblem.n2 = 8\n"
        "prior.kind = conjugate\nprior.c = 2.0\nrun.alpha = 0.05\n"
        "run.seed = 9\nrun.n_sims = 2000\n",
        {},
        0,
        {
            "power.csv": "6358eda6ba6416d222c2da535105b0c6268e33ba36ccd10445c71d7c774b4bd5",
            "power.svg": "d660fe30e869b25028044738267d364b19c1a7132ff66658b78f68f5094a25a2",
        },
    ),
    "power_subset_selection": (
        "power",
        "problem.kind = subset_selection\nproblem.n = 20\nproblem.p1 = 2\nproblem.p2 = 3\n"
        "prior.kind = conjugate\nprior.c = 0.5\nrun.alpha = 0.05\n"
        "run.seed = 8\nrun.n_sims = 2000\n",
        {},
        0,
        {
            "power.csv": "216dd68327bdbd6950407c8088432576f2693528557a79308fba03b3ed5f1747",
            "power.svg": "78f8b7117f0f356746fe9b30b1d7fc713e653ab0af034c34b51ebd25ddc5b3e7",
        },
    ),
    "calibrate_two_sample_t_data": (
        # the summarize path: the observed statistic and B from two data files
        "calibrate",
        "problem.kind = two_sample_t\nproblem.n1 = 7\nproblem.n2 = 9\n"
        "problem.data1 = x1.csv\nproblem.data2 = x2.csv\n"
        "prior.kind = conjugate\nprior.c = 2.0\nrun.alpha = 0.05\n",
        {
            "x1.csv": "x\n-0.01\n1.05\n0.74\n0.72\n1.62\n-1.21\n-0.63\n",
            "x2.csv": "x\n-0.78\n0.67\n2.0\n0.77\n1.4\n-1.49\n0.98\n-0.29\n2.93\n",
        },
        0,
        {
            "calibration.csv": "fe44b45e0721d98bcb43bcc7dc6aeb28c164898d3aab79029d507e2aacc9e9fe",
        },
    ),
    "power_variance_ratio": (
        # the batch route of B: the 1 500 draws are two blocks of 750, and
        # each spans two of B's 512-row blocks
        "power",
        "problem.kind = variance_ratio\nproblem.n1 = 8\nproblem.n2 = 10\n"
        "prior.kind = shifted_exponential\nprior.rate = 1.0\nrun.alpha = 0.05\n"
        "run.seed = 3\nrun.n_sims = 1500\n",
        {},
        0,
        {
            "power.csv": "b2c643f302aed699794ee4b35de0dc41763f3714eb6c0e681301d23be7845ba3",
            "power.svg": "882b6ee663de4dd7d0d6a8cf033fdde50c33b283f9ad7f1ad8cfb4e1828e94d5",
        },
    ),
    "power_t_test": (
        # derived per block: the t statistic and B read the same (xbar, SS)
        "power",
        "problem.kind = t_test\nproblem.n = 10\nprior.kind = gaussian_scale\n"
        "run.alpha = 0.05\nrun.seed = 12\nrun.n_sims = 2000\n",
        {},
        0,
        {
            "power.csv": "504b1b67a41189f6f70ae4332612d12358d3d7996cd5174824c0f78c83d43ba8",
            "power.svg": "ec4672336c59d9acc13c903fe3fa3ec4a58950c7f22fe3b95c1f9cc1f120b5b9",
        },
    ),
    "power_regression_unknown_var": (
        "power",
        "problem.kind = regression_unknown_var\nproblem.p = 2\nproblem.n = 12\n"
        "prior.kind = gaussian_spherical\nprior.precision = 0.5\nrun.alpha = 0.05\n"
        "run.seed = 13\nrun.n_sims = 2000\n",
        {},
        0,
        {
            "power.csv": "1ee85aebcecba5b45bfca4fddaf46e3bd894c4ed7c03cd701d3566bc106c1913",
            "power.svg": "cd89849d06259597564872873b930cb1a53916a7758ba2960f08f35d063a1376",
        },
    ),
    "calibrate_subjective_variance_data": (
        # lambda through the F -> T map of B's statistic form, and B(Q, T)
        # of the observed summary
        "calibrate",
        "problem.kind = subjective_variance\nproblem.n1 = 7\nproblem.n2 = 7\nproblem.b = 1.5\n"
        "problem.data1 = x1.csv\nproblem.data2 = x2.csv\nprior.kind = gamma\nrun.alpha = 0.05\n",
        {
            "x1.csv": "x\n1.9\n-2.4\n0.7\n3.1\n-1.6\n2.2\n-0.4\n",
            "x2.csv": "x\n0.3\n-0.8\n0.5\n1.1\n-0.2\n0.6\n-0.9\n",
        },
        0,
        {
            "calibration.csv": "9a2e13dd966e7661ea26f9ad1704c42cd2d99de47df6d7760ddd5c2302cf5edb",
        },
    ),
    "dominance": (
        "dominance",
        "problem.kind = subjective_variance\nproblem.n1 = 10\nproblem.n2 = 10\n"
        "prior.kind = gamma\nrun.alpha = 0.05\nrun.seed = 4\nrun.n_sims = 3000\n",
        {},
        0,
        {
            "dominance.csv": "a3d2abaa7c8c4725d98949314a3559dd3fb1514a25b5baa4132efd78cfa8510a",
            "dominance.svg": "a0b44f46f3b32eeb0fd8bb75fa918a5b37b222eece7782d8a196707d16b5b7aa",
            "dominance.txt": "c386b655fdca87251a18cb81649698cd6121f49b710bcf88ea3b4ac4ee7b6d03",
        },
    ),
}


def outputs(tmp_path, command, config, data):
    for name, text in data.items():
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_are_pinned(tmp_path, run):
    command, config, data, code, expected = RUNS[run]
    assert outputs(tmp_path, command, config, data) == (code, expected)
