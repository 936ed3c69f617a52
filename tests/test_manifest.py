"""Output manifest: every benchmark op at seed 7 writes pinned outputs.

The ops are the 51 that `bench/run.py`'s `workload_ops` builds from the
checked-in configs under `bench/configs/`.  Each runs once through
`cli.main` at --seed 7 in a temporary directory, and its exit code, the
sha256 of every file it writes and its printed text (stdout and stderr,
the output directory shown as OUT) must match `manifest.json`.  The pins
hold only for the numpy and scipy versions the manifest records.

    PYTHONPATH=src python tests/test_manifest.py

rewrites `manifest.json` from the current code; name every op that
moved, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest
import scipy

from bfequiv.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.json")
SEED = 7


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(HERE, os.pardir, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_ops() -> list:
    run = _bench_run()
    return [op for workload in sorted(run.WORKLOADS) for op in run.workload_ops(workload)]


def run_op(op: dict, tmp: str) -> dict:
    """Exit code, {file: sha256} and printed text of one op."""
    out = os.path.join(tmp, op["id"].replace(":", "_"))
    argv = [op["command"], "--out", out, "--seed", str(SEED)]
    if op["config"]:
        argv += ["--config", op["config"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(argv)
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "files": dict(sorted(files.items())), "printed": buf.getvalue().replace(out, "OUT")}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _load() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def test_manifest_covers_every_bench_op():
    assert sorted(_load()["ops"]) == sorted(op["id"] for op in bench_ops())


@pytest.mark.parametrize("op", bench_ops(), ids=lambda op: op["id"])
def test_op_outputs_are_pinned(tmp_path, op):
    manifest = _load()
    if manifest["versions"] != versions():
        pytest.skip(f"outputs pinned to {manifest['versions']}")
    assert run_op(op, str(tmp_path)) == manifest["ops"][op["id"]]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ops = {op["id"]: run_op(op, tmp) for op in bench_ops()}
    with open(MANIFEST, "w") as fh:
        json.dump({"seed": SEED, "versions": versions(), "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} ops to {MANIFEST}", file=sys.stderr)
