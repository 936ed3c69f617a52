"""Regenerate the observed-data CSVs read by the numeric workload.

Each file holds one dataset whose decision statistic sits at a chosen
strength of evidence, from weak to very strong, so that `calibrate`
evaluates B across the whole statistic range:

* t_test (n = 30, column x): t = 0.5, 2.5, 10 and 170 (u = 0.999/n);
* regression_unknown_var (p = 1, n = 60, columns y, x1):
  T = y'Hy/y'y = 0.05, 0.5, 0.85 and 0.95;
* regression_known_var (p = 3, n = 20, columns y, x1..x3):
  |T| = 2, 20, 60 and 150.

The noise pattern comes from a fixed NumPy seed, so rerunning this
script rewrites identical files:

    python3 bench/data/make_data.py
"""

import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _write(name, columns):
    names = list(columns)
    rows = zip(*(columns[c] for c in names))
    with open(os.path.join(HERE, name), "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _t_test(rng, n, t):
    z = rng.standard_normal(n)
    z -= z.mean()
    z *= np.sqrt((n - 1) / np.sum(z**2))  # sample sd exactly 1
    return {"x": t / np.sqrt(n) + z}


def _regression(rng, n, p, target, unknown_var):
    X = rng.standard_normal((n, p))
    Q, _ = np.linalg.qr(X)
    r = rng.standard_normal(n)
    r -= Q @ (Q.T @ r)  # residual orthogonal to the design
    a = rng.standard_normal(p)
    a /= np.linalg.norm(a)
    if unknown_var:
        # T = |a|^2 / (|a|^2 + |r|^2)
        r *= np.sqrt(n - p) / np.linalg.norm(r)
        a *= np.linalg.norm(r) * np.sqrt(target / (1.0 - target))
    else:
        a *= np.sqrt(target)  # |T| = |Z'y|^2
    cols = {"y": Q @ a + r}
    for j in range(p):
        cols[f"x{j + 1}"] = X[:, j]
    return cols


def main():
    rng = np.random.default_rng(20131202)
    for t in (0.5, 2.5, 10, 170):
        _write(f"t_test_t{t:g}.csv", _t_test(rng, 30, t))
    for T in (0.05, 0.5, 0.85, 0.95):
        _write(f"reg_unknown_T{T:g}.csv", _regression(rng, 60, 1, T, True))
    for T in (2, 20, 60, 150):
        _write(f"reg_known_T{T:g}.csv", _regression(rng, 20, 3, T, False))


if __name__ == "__main__":
    main()
