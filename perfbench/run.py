"""Benchmark of the `toda-kdq` commands, run in-process through `toda_kdq.cli.main`.

    python3 perfbench/run.py --workload {lattice,quadric,verify-all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from `src/`.
Each op's wall time is divided by the time of a calibration kernel measured
right before and after it, which makes figures repeat on a shared machine.
The last line of stdout is one JSON object with the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`); details go to stderr
and to `perfbench/out/result-<workload>-seed<N>-trace<T>.json`.
"""

import os

# One BLAS/OpenMP thread for the program: with two, cauchy_reproduce keeps a
# second core spinning (twice the CPU time, no wall-time gain), and timings
# follow the scheduler.  Set before numpy is first imported.
os.environ.update(
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "TODA_KDQ_THREADS": "1"}
)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
SETUP_CAL_S = 0.05  # calibration before and after each set-up sample
# setup_s is reported in seconds at this kernel time: the calibrated import
# time times 2 ms, near the kernel's time on the reference machine
CAL_REF_S = 0.002
CAL_REPS = 5
# each calibration sample next to an op lasts at least this share of the op,
# so that a long op is not divided by a few milliseconds of jitter
CAL_SHARE = 0.1
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {"op_p50_cal": "cal", "rows_per_cal": "rows/cal", "peak_rss_mb": "MB", "setup_s": "s"}

_SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import toda_kdq.cli as cli\n"
    "sys.stdout.write(repr(time.perf_counter() - t) + ' ' + cli.__file__)\n"
)


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def import_program():
    """Import `toda_kdq.cli` from this tree's `src/`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import toda_kdq.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"toda_kdq imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(x) -> list:
    """(seconds, cal) of importing `toda_kdq.cli`, each in a fresh
    interpreter started on the least contended CPU, with the calibration
    time measured around it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        settle(x)
        before = calibrate(x, SETUP_CAL_S)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import of toda_kdq.cli failed: {proc.stderr.strip()[-300:]}")
        after = calibrate(x, SETUP_CAL_S)
        seconds, path = proc.stdout.split(" ", 1)
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported toda_kdq from {path}")
        if i:  # the first import only warms the file cache
            samples.append((float(seconds), 0.5 * (before + after)))
    return samples


def calibration_arrays():
    """The calibration kernel's inputs: a small real array and a unit-circle grid."""
    return np.linspace(0.0, 1.0, 48), np.exp(2j * np.pi * np.arange(4096) / 4096)


def calibration_kernel(arrays):
    """Fixed work that calls nothing in toda_kdq, in the program's blend:
    interpreter-bound float formatting and complex arithmetic, small numpy
    array ops, a small LAPACK call, and a complex power over a grid too big
    for the first-level cache."""
    x, grid = arrays
    parts = []
    off = x[:7] + 0.5
    for i in range(30):
        diag = x[:8] + i
        if not np.all(np.isfinite(diag)):
            raise FloatingPointError("calibration kernel overflowed")
        z = complex(1.0 + 0.01 * i, 0.5) ** -3 * math.sqrt(2 * i + 1)
        parts.append(",".join(repr(float(v)) for v in diag[:4]) + repr(z.real))
        w = eigh_tridiagonal(diag, off, eigvals_only=True)
        parts.append(repr(float(w[0] + np.exp(1j * x * i).real.sum())))
    u = (1.0 - 0.3 / grid + 0.04 / grid**2) ** -1.5
    return len("".join(parts)) + float(u.real.sum())


def calibrate(x, budget_s: float = 0.0) -> float:
    """One calibration sample: mean wall time of the kernel over at least
    CAL_REPS runs and at least `budget_s` seconds."""
    reps = 0
    t0 = time.perf_counter()
    end = t0 + budget_s
    while reps < CAL_REPS or time.perf_counter() < end:
        calibration_kernel(x)
        reps += 1
    return (time.perf_counter() - t0) / reps


def settle(x):
    """Move this process to the allowed CPU on which the calibration kernel
    runs fastest.

    On a shared host one CPU can run at 60% of its sibling's speed, and which
    one is slow changes within tens of seconds.  The program slows by another
    factor than the kernel, so each op runs on the least contended CPU.
    """
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        sample = calibrate(x)
        if best is None or sample < best[0]:
            best = (sample, cpu)
    os.sched_setaffinity(0, {best[1]})


def execute(cli, op):
    """Run one op; returns (seconds, exit code or None on a raise, stdout, output text)."""
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
    except Exception as exc:  # a traceback in the program is a failed op
        sys.stderr.write(f"perfbench: {op.name} raised {type(exc).__name__}: {exc}\n")
        rc = None
    seconds = time.perf_counter() - t0
    stdout = buf.getvalue()
    if op.output is None:
        text = stdout
    else:
        text = op.output.read_text(encoding="utf-8") if op.output.exists() else ""
    return seconds, rc, stdout, text


def evaluate(op, rc, stdout, text):
    """(rows, deviations, error message or '')."""
    try:
        rows, devs = op.check(text, stdout, rc)
    except workloads.CheckFailed as exc:
        return 0, [], str(exc)
    bad = [f"{name} {observed!r} > {tol!r}" for name, observed, tol in devs if not observed <= tol]
    return rows, devs, "; ".join(bad)


def run_workload(cli, ops, seconds, tracer, x):
    """Warm-up round, then whole timed rounds until `seconds` have passed."""
    budgets = [CAL_SHARE * execute(cli, op)[0] for op in ops]
    if tracer is not None:
        tracer.install()
    records = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            settle(x)
            before = calibrate(x, budgets[i])
            if tracer is not None:
                tracer.op_id = len(records)
            sec, rc, stdout, text = execute(cli, op)
            after = calibrate(x, budgets[i])
            rows, devs, error = evaluate(op, rc, stdout, text)
            records.append(
                {"round": rounds, "op": i, "seconds": sec, "cal_s": 0.5 * (before + after),
                 "rows": rows, "devs": devs, "error": error}
            )
        rounds += 1
    return records, rounds


def end_to_end(records, rounds):
    op_cal = [r["seconds"] / r["cal_s"] for r in records]
    per_round = []
    for k in range(rounds):
        mine = [r for r in records if r["round"] == k]
        rows = sum(r["rows"] for r in mine if not r["error"])
        per_round.append(rows / sum(r["seconds"] / r["cal_s"] for r in mine))
    return {
        "op_p50_cal": statistics.median(op_cal),
        "rows_per_cal": statistics.median(per_round),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def deviation_table(ops, records):
    """Largest observed deviation per check, apart for the known-fault ops."""
    table = {}
    for r in records:
        op = ops[r["op"]]
        for name, observed, tol in r["devs"]:
            key = f"{op.name} {name}" if op.known_fault else name
            prev = table.get(key, (-1.0, tol))
            table[key] = (max(prev[0], observed), tol)
    return {key: {"observed": obs, "tolerance": tol} for key, (obs, tol) in sorted(table.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "toda_kdq" / "cli.py").is_file():
        return fail(f"no program source at {SRC}; run from the root of a toda-kdq source tree")
    x = calibration_arrays()
    try:
        cli = import_program()
        setup = measure_setup(x)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        records, rounds = run_workload(cli, ops, args.seconds, tracer, x)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"]]
    unexpected = [r for r in failed if not ops[r["op"]].known_fault]
    for r in unexpected:
        sys.stderr.write(f"perfbench: FAILED {ops[r['op']].name}: {r['error']}\n")
    cal_median = statistics.median(r["cal_s"] for r in records)
    e2e = end_to_end(records, rounds)
    e2e["setup_s"] = CAL_REF_S * statistics.median(sec / cal for sec, cal in setup)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "cal_median_s": cal_median,
        "setup_samples_s_cal": setup,
        "setup_raw_median_s": statistics.median(sec for sec, _ in setup),
        "op_p50_s": statistics.median(r["seconds"] for r in records),
        "end_to_end": e2e,
        "known_faults": sorted({f"{op.name}: {op.known_fault}" for op in ops if op.known_fault}),
        "failed_ops": sorted({ops[r["op"]].name for r in failed}),
        "deviations": deviation_table(ops, records),
        "ops": [[r["op"], r["seconds"], r["cal_s"]] for r in records],
        "op_median_s": {
            op.name: statistics.median(r["seconds"] for r in records if r["op"] == i) for i, op in enumerate(ops)
        },
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        detail["per_layer"] = tracer.summary(cal_median, rounds)
        detail["spans"] = len(tracer.start)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": detail["per_layer"][name], "unit": unit} for name, unit in metric_units().items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    sys.stderr.write(
        f"perfbench: {tag}: {rounds} rounds x {len(ops)} ops, cal {cal_median * 1e3:.3f} ms, "
        f"op_p50 {detail['op_p50_s']:.4f} s, setup {e2e['setup_s']:.3f} s\n"
    )
    result = {"correct": not unexpected, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
