"""bfequiv benchmark: CLI-path workloads, end-to-end metrics, layer trace.

    python3 bench/run.py --workload numeric --seed 1 --seconds 20 --trace 0

Each pass of a workload is a fresh interpreter (`child.py`) that imports
``bfequiv.cli`` from this checkout's ``src/`` and runs the workload's ops
through ``bfequiv.cli.main`` on the checked-in configs under
``bench/configs/``.  A run repeats passes for ``--seconds`` (at least
MIN_PASSES of them) and reports medians over every pass but the first,
which is a warm-up: its outputs are checked, its timings are not used.
The seed reaches the program only as ``--seed``.  BLAS/OpenMP threads
are capped at the core count.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics (`layertrace`)
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines before
it give the same figures for a human, the environment, and every failed
check; the full result is also written to ``.bench_work/``.

An op fails when it exits nonzero, raises, fails an output check
(`checks`), or writes CSVs that differ from the first pass of the run
(same seed, so they must be byte-identical).  ``failed`` counts every
failure.  ``correct`` is false when any failure is not one of the
KNOWN_DEFECTS below, so new failures fail the run while the recorded
ones stay counted and visible until the program is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CONFIGS = os.path.join(BENCH, "configs")

MIN_PASSES = 4  # timed passes, after the warm-up
MIN_TRACED_PASSES = 2
RUN_BUDGET_S = 165.0  # each run must end within 180 s

WORKLOADS = {
    "numeric": "B by series, fixed nodes or quadrature: verify, power, calibrate (scalar B on fresh engines) and props, so B evaluation dominates",
    "closed": "B in closed form: verify, power, dominance, johnson, calibrate and reproduce-sec6, so drawing dominates",
}

# Failures present at the commit that introduced the benchmark: the
# series routes stop early at strong evidence (relative error of B
# against its closed form, measured on the checked-in data).
KNOWN_DEFECTS = {
    "calibrate:data_t_test_t170": "TTestBf series, |t| = 170: -2.4 %",
    "calibrate:data_regression_unknown_var_T0.85": "RegressionUnknownVarBf series, T = 0.85: -0.27 %",
    "calibrate:data_regression_unknown_var_T0.95": "RegressionUnknownVarBf series, T = 0.95: -2.5 %",
    "calibrate:data_regression_known_var_T150": "RegressionKnownVarBf series, |T| = 150: -24 %",
}

# Subcommands per config file; configs named alpha_*, lambda_* and
# data_* are calibrations, the other problem configs run verify + power.
_COMMANDS = {"dominance": ("dominance",), "johnson": ("johnson",), "props": ("props",)}
_CALIBRATE_PREFIXES = ("alpha_", "lambda_", "data_")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def workload_ops(workload: str) -> list:
    """The ops of one pass: dicts with id, command and config path."""
    cdir = os.path.join(CONFIGS, workload)
    configs = sorted(f for f in os.listdir(cdir) if f.endswith(".ini"))
    ops = []
    for name in configs:
        stem = name[: -len(".ini")]
        path = os.path.join(cdir, name)
        if stem.startswith(_CALIBRATE_PREFIXES):
            commands = ("calibrate",)
        else:
            commands = _COMMANDS.get(stem, ("verify", "power"))
        for command in commands:
            ops.append({"id": f"{command}:{stem}", "command": command, "config": path})
    if workload == "closed":
        ops.append({"id": "reproduce-sec6", "command": "reproduce-sec6", "config": None})
    return ops


def tiny_configs(ops: list, dest: str) -> list:
    """Copies of the configs with very few draws and trials (self-tests).

    dominance keeps its draws: its size verdict needs about 1e6 of them.
    """
    os.makedirs(dest, exist_ok=True)
    out = []
    for op in ops:
        op = dict(op)
        if op["config"]:
            lines = []
            with open(op["config"]) as fh:
                for line in fh:
                    key = line.split("=", 1)[0].strip()
                    if key == "run.n_sims" and op["command"] != "dominance":
                        line = "run.n_sims = 2000\n"
                    elif key == "run.n_trials":
                        line = "run.n_trials = 2\n"
                    elif key == "problem.data":
                        rel = line.split("=", 1)[1].strip()
                        full = os.path.normpath(os.path.join(os.path.dirname(op["config"]), rel))
                        line = f"problem.data = {full}\n"
                    lines.append(line)
            path = os.path.join(dest, os.path.basename(op["config"]))
            with open(path, "w") as fh:
                fh.writelines(lines)
            op["config"] = path
        out.append(op)
    return out


def tail_percentile(samples_min: int) -> int:
    """Highest percentile with at least ten samples beyond it, for the
    smallest sample a run can have, so every run reports the same one."""
    for q in (99, 95, 90, 75, 50):
        if samples_min * (100 - q) / 100.0 >= 10:
            return q
    return 50


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "thread_caps": {
            var: str(nproc)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def cpu_ticks():
    """Machine-wide CPU ticks from /proc/stat: (all, steal), or None.

    Steal is time the hypervisor gave this machine's virtual CPUs to
    other guests; its share during a run shows how busy the host was.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(ticks), ticks[7] if len(ticks) > 7 else 0


def make_spec(ops, seed, traced, pass_dir) -> dict:
    """What one child pass runs, and where it writes its outputs."""
    spec_ops = []
    for op in ops:
        out = os.path.join(pass_dir, op["id"].replace(":", "_"))
        argv = [op["command"], "--out", out, "--seed", str(seed)]
        if op["config"]:
            argv += ["--config", op["config"]]
        spec_ops.append(dict(op, argv=argv, out=out))
    return {
        "ops": spec_ops,
        "trace": traced,
        "result": os.path.join(pass_dir, "result.json"),
        "spans": os.path.join(pass_dir, "spans.json"),
    }


def run_child(ops, seed, traced, pass_dir, env, timeout) -> dict:
    os.makedirs(pass_dir)
    spec = make_spec(ops, seed, traced, pass_dir)
    spec_path = os.path.join(pass_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    child_env = dict(os.environ, **env["thread_caps"])
    child_env.pop("PYTHONPATH", None)
    with open(os.path.join(pass_dir, "stderr.txt"), "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "child.py"), spec_path, repr(spawn)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env,
            cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"pass in {pass_dir} exceeded {timeout:.0f} s") from None
    if code != 0:
        with open(os.path.join(pass_dir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"pass in {pass_dir} exited {code}:\n{tail}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def run_passes(ops, seed, seconds, trace, wdir, env, min_passes=MIN_PASSES) -> list:
    """Fresh-interpreter passes for about `seconds`.

    Pass 0 is the warm-up.  Then, with tracing on, traced and untraced
    passes alternate.  Once `min_passes` timed passes are in (with tracing,
    `MIN_TRACED_PASSES` of each kind), a pass starts only if it is likely
    to end nearer to `seconds` than stopping now would, so every run
    measures about the same span of time.
    """
    passes = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        timed = passes[1:]
        n_traced = sum(p["traced"] for p in timed)
        enough = (
            len(timed) - n_traced >= min_passes
            if not trace
            else min(n_traced, len(timed) - n_traced) >= min(min_passes, MIN_TRACED_PASSES)
        )
        typical = statistics.median(p["pass_s"] for p in passes) if passes else 0.0
        if enough and elapsed + 0.5 * typical >= seconds:
            break
        slowest = max((p["pass_s"] for p in passes), default=0.0)
        if passes and elapsed + 1.5 * slowest > RUN_BUDGET_S:
            if not enough:
                raise RuntimeError(f"only {len(passes)} passes fit in {RUN_BUDGET_S} s")
            break
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        result = run_child(
            ops, seed, traced, os.path.join(wdir, f"pass{len(passes)}"), env,
            timeout=max(5.0, RUN_BUDGET_S - elapsed),
        )
        result["pass_s"] = time.monotonic() - t0
        passes.append(result)
    return passes


def count_failures(passes) -> tuple:
    """(attempted, failures as {op id: [problems]}) over every pass."""
    first = {op["id"]: op["csv_sha256"] for op in passes[0]["ops"]}
    attempted, failures = 0, {}
    for k, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            problems = list(op["problems"])
            if not problems and op["csv_sha256"] != first[op["id"]]:
                problems.append(f"pass {k}: CSVs differ from pass 0 with the same seed")
            if problems:
                failures.setdefault(op["id"], []).append(problems)
    return attempted, failures


def end_to_end(passes, n_ops) -> tuple:
    """Medians over passes, and op latency.

    Every op runs once per pass, so each op's latency is first reduced to
    its median across passes; op_ms_p50 and op_ms_tail are percentiles of
    those per-op medians, every op weighing the same.  A percentile of the
    pooled invocations instead falls on the border between two ops of
    very different latency and jumps with the pass count and the noise.
    The tail percentile is the highest with at least ten invocations
    beyond it (see `tail_percentile`).
    """
    latencies = [op["latency_s"] * 1e3 for p in passes for op in p["ops"]]
    per_op = {}
    for p in passes:
        for op in p["ops"]:
            per_op.setdefault(op["id"], []).append(op["latency_s"] * 1e3)
    medians = [statistics.median(v) for v in per_op.values()]
    q = tail_percentile(MIN_PASSES * n_ops)
    cuts = statistics.quantiles(medians, n=100, method="inclusive")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": statistics.median(medians),
        "op_ms_tail": cuts[q - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    draws = [sum(op["draws"] for op in p["ops"]) / p["wall_s"] for p in passes]
    extra = {
        "draws_per_s": statistics.median(draws),
        "op_ms_tail_percentile": q,
        "op_samples": len(latencies),
        "passes": len(passes),
    }
    return metrics, extra


def layer_metrics(passes) -> dict:
    import layertrace

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {
        name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
        for name, (unit, _) in layertrace.METRICS.items()
    }
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few draws per op, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bfequiv", "cli.py")):
        print(f"error: no bfequiv sources under {SRC}", file=sys.stderr)
        return 2

    wdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(wdir, ignore_errors=True)
    ops = workload_ops(args.workload)
    min_passes = MIN_PASSES
    if args.size == "tiny":
        ops = tiny_configs(ops, os.path.join(wdir, "configs"))
        min_passes = 2
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    ticks_before = cpu_ticks()
    try:
        passes = run_passes(ops, args.seed, args.seconds, args.trace, wdir, env, min_passes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[0] > ticks_before[0]:
        env["steal_share"] = (ticks_after[1] - ticks_before[1]) / (ticks_after[0] - ticks_before[0])
    env["versions"] = passes[0]["versions"]

    attempted, failures = count_failures(passes)
    failed = sum(len(v) for v in failures.values())
    unexpected = sorted(set(failures) - set(KNOWN_DEFECTS))
    plain = [p for p in passes[1:] if not p["traced"]]
    e2e, extra = end_to_end(plain, len(ops))
    if args.trace:
        metrics = layer_metrics(passes[1:])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": env,
        "end_to_end": dict(e2e, **extra),
        "error_rate": failed / attempted,
        "failures": failures,
        "unexpected_failures": unexpected,
        "metrics": metrics,
    }
    with open(os.path.join(wdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    print("env " + json.dumps(env))
    print(f"timed passes {extra['passes']} after 1 warm-up, op samples {extra['op_samples']}, "
          f"op_ms_tail = p{extra['op_ms_tail_percentile']}")
    for name, unit in END_TO_END.items():
        print(f"{name:<12} {e2e[name]:.6g} {unit}")
    if extra["draws_per_s"]:
        print(f"{'draws_per_s':<12} {extra['draws_per_s']:.6g} 1/s")
    print(f"{'error_rate':<12} {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    for op_id, runs in sorted(failures.items()):
        tag = "known defect: " + KNOWN_DEFECTS[op_id] if op_id in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failed {op_id} x{len(runs)} [{tag}] {runs[0][0]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
