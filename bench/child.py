"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json SPAWN_MONOTONIC

Imports ``bfequiv.cli`` from the checkout's ``src/`` (the time from the
parent's spawn to this point is the pass's set-up time), then runs every
op of the spec in sequence through ``bfequiv.cli.main``, exactly as a
user's CLI invocation would, and times each one.  With tracing on, the
layer wrappers of `layertrace` are installed first.  After the timed
phase the outputs are checked (`checks`) and the result is written to
the JSON path named in the spec.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def _run_op(cli, argv):
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is an op failure, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


def _csv_digests(out):
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_pass(spec: dict, cli) -> dict:
    """Time every op of the spec, then check the outputs."""
    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    timed = []
    start = time.perf_counter()
    for op in spec["ops"]:
        timed.append(_run_op(cli, op["argv"]))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.dump(), fh)

    import checks
    import numpy
    import scipy

    ops = []
    for op, (code, latency) in zip(spec["ops"], timed):
        problems, draws = checks.check_op(op["command"], op["config"], op["out"], code)
        ops.append(
            {
                "id": op["id"],
                "latency_s": latency,
                "exit": code,
                "problems": problems,
                "draws": draws,
                "csv_sha256": _csv_digests(op["out"]),
            }
        )
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "layers": layers,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def main():
    spec_path = sys.argv[1]
    sys.path.insert(0, SRC)
    import bfequiv.cli as cli

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bfequiv was imported from {cli.__file__}, not from {SRC}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_pass(spec, cli)
    result["setup_s"] = ready - float(sys.argv[2])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
