"""Layer curves of `toda_kdq`, written to one JSON file.

    python3 bench/run.py OUT.json [--src PATH]

Imports the program from `--src` (default: `src/` of this tree), so the same
script measures any checkout.  BLAS runs on one thread.  The file records the
machine (cores, Python, numpy and its BLAS), the import time of
`toda_kdq.cli` in fresh interpreters, the median time of one RK4 step of
`toda_1d.integrate_ensemble` over the ensemble size B and the lattice size N,
and the median time of one in-process `verify.run_all()`, the checks of
`toda-kdq verify-all`.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
IMPORT_SAMPLES = 7
ENSEMBLES = (1, 5, 20)
SIZES = (2, 8, 32, 128)
RK4_STEPS = 200  # per sample; the time of a step is the sample's time over this
RK4_SAMPLES = 15
DT = 1e-3
VERIFY_SAMPLES = 15

_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import toda_kdq.cli\n"
    "print(repr(time.perf_counter() - t), toda_kdq.cli.__file__)\n"
)


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def import_seconds(src: Path) -> dict:
    """Seconds of `import toda_kdq.cli` in fresh interpreters; the first
    sample only warms the file cache and is dropped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for i in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(src):
            raise RuntimeError(f"a fresh interpreter imported toda_kdq from {path}, not from {src}")
        if i:
            samples.append(float(seconds))
    return {"median_s": statistics.median(samples), "min_s": min(samples), "samples": len(samples)}


def rk4_step_curve(toda_1d, jacobi_matrix) -> list:
    """Median seconds of one RK4 step, for each ensemble size B and lattice
    size N.  The samples go round the (B, N) pairs in turn, so that a burst
    of load on a shared machine spreads over all of them."""
    rng = np.random.default_rng(0)
    ensembles = {
        (b, n): [jacobi_matrix(offdiag=rng.uniform(0.3, 1.0, n - 1), diag=rng.uniform(-1.0, 1.0, n)) for _ in range(b)]
        for b in ENSEMBLES
        for n in SIZES
    }
    samples = {key: [] for key in ensembles}
    for i in range(RK4_SAMPLES + 1):
        for key, states in ensembles.items():
            t = time.perf_counter()
            toda_1d.integrate_ensemble(states, RK4_STEPS * DT, DT)
            if i:  # the first round is a warm-up
                samples[key].append((time.perf_counter() - t) / RK4_STEPS)
    return [{"B": b, "N": n, "step_us": 1e6 * statistics.median(samples[b, n])} for b, n in ensembles]


def verify_seconds(verify) -> dict:
    """Seconds of one in-process `verify.run_all()`, after one warm-up run;
    `checks` is the number of lines it returns and `passed` how many pass."""
    results = verify.run_all()
    samples = []
    for _ in range(VERIFY_SAMPLES):
        t = time.perf_counter()
        verify.run_all()
        samples.append(time.perf_counter() - t)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "samples": len(samples),
        "checks": len(results),
        "passed": sum(r.passed for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from toda_kdq import toda_1d, verify
    from toda_kdq.moment_1d import JacobiMatrix

    if not Path(toda_1d.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"toda_kdq imported from {toda_1d.__file__}, not from {src}")
    report = {
        "machine": machine(),
        "import_toda_kdq_cli": import_seconds(src),
        "rk4_step": {"dt": DT, "steps_per_sample": RK4_STEPS, "samples": RK4_SAMPLES},
    }
    report["rk4_step"]["curve"] = rk4_step_curve(toda_1d, JacobiMatrix)
    report["verify_run_all"] = verify_seconds(verify)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["rk4_step"]["curve"]:
        print(f"B = {row['B']:3d}  N = {row['N']:4d}  {row['step_us']:8.1f} us/step")
    print(f"import toda_kdq.cli: {report['import_toda_kdq_cli']['median_s']:.3f} s (median)")
    run_all = report["verify_run_all"]
    print(f"verify.run_all(): {run_all['median_s']:.3f} s (median), {run_all['passed']}/{run_all['checks']} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
