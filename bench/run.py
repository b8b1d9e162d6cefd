"""Layer curves of `toda_kdq`, written to one JSON file.

    python3 bench/run.py OUT.json [--src PATH]

Imports the program from `--src` (default: `src/` of this tree), so the same
script measures any checkout.  BLAS runs on one thread.  The file records the
machine (cores, Python, numpy and its BLAS), the import time of
`toda_kdq.cli` in fresh interpreters, the median time of one RK4 step of
`toda_1d.integrate_ensemble` over the ensemble size B and the lattice size N
(and for the ensemble of `verify-all`, one state of each N from 2 to 6), the
median time of one in-process `verify.run_all()`, the checks of
`toda-kdq verify-all`, the median time of one in-process
`toda-kdq simulate-1d` over N, and the median time of one
`sphere.harmonic_table` call with every S^2 key of degree <= k_max, at one
point and on the `sphere_nodes(3, 2 k_max)` grid, over k_max, the median
time of one `pseudo_toda.flaschka_surfaces(state, 1, theta)` over the
component count K and the atom count N, at t = 0 and t = 100, the median
time of one `verify.check_pseudo_toda` and of one `verify.check_kdq_kernel`
at their `verify-all` sizes and of one `kdq.hua_kernel` on S^1 and S^2 over
k_max, and over the component count K the median time of reading a JSON
`components` list into
a `kdq.PseudoPositiveMeasure` and a `pseudo_toda.PseudoTodaState`
(`from_dict`) and of one `pseudo_toda.evolve` and one `iso_flow.riccati_evolve`,
and the median time of one `verify.check_kdq_cauchy` with the seed of
`verify.run_all` over k_max at j_max = 2 (k_max = 3 is its `verify-all` size),
and of the QR (Kostant-Symes) flow: one `toda_1d.spectral_solve` over the
lattice size N and over the number of times, and one
`pseudo_toda.family_jacobi` at t = 100 over the component count K, and of
the two stages of the CSV that follow the RK4 in `simulate-1d`: one
`moment_1d.jacobi_eigenvalues` on the 1,001 rows of an RK4 trajectory over
N, and one `toda_1d._csv_text` over the number of rows.
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
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
IMPORT_SAMPLES = 7
ENSEMBLES = (1, 5, 20)
SIZES = (2, 8, 32, 128)
VERIFY_ENSEMBLE = (2, 3, 4, 5, 6)  # the lattice sizes of the RK4 ensemble of `verify-all`
RK4_STEPS = 200  # per sample; the time of a step is the sample's time over this
RK4_SAMPLES = 15
DT = 1e-3
VERIFY_SAMPLES = 15
SIMULATE_SIZES = (2, 8, 32, 64)
SIMULATE_T_FINAL = 1.0
SIMULATE_SAMPLES = 7
HARMONIC_KMAX = (2, 4, 8, 16, 24, 32)
HARMONIC_SAMPLES = 15
SURFACE_KMAX = (2, 4, 8, 16)  # K = (k_max + 1)^2 = 9, 25, 81, 289 components on S^2
SURFACE_ATOMS = (4, 6)
SURFACE_TIMES = (0.0, 100.0)
SURFACE_SAMPLES = 5
PSEUDO_CHECK_SAMPLES = 15
FAMILY_KMAX = (2, 4, 8, 16, 24)  # K = 9, 25, 81, 289, 625 components on S^2
FAMILY_ATOMS = 4
FAMILY_SAMPLES = 15
KERNEL_CHECK_TRIALS = 15  # the size of verify-all's kdq-kernel-series-vs-closed line
KERNEL_CHECK_SAMPLES = 15
HUA_KMAX = (5, 10, 20, 40, 80)  # 40 is the degree of the verify-all check
HUA_SAMPLES = 15
CAUCHY_KMAX = (1, 2, 3, 4, 5)
CAUCHY_JMAX = 2
CAUCHY_SAMPLES = 15
QR_SIZES = (2, 4, 8, 16, 32, 64)  # at QR_TIMES_AT_SIZES times
QR_TIMES_AT_SIZES = 101
QR_TIME_COUNTS = (1, 11, 101, 1001)  # at N = QR_SIZE_AT_TIMES
QR_SIZE_AT_TIMES = 8
QR_T_FINAL = 10.0  # times evenly spaced in [0, QR_T_FINAL]
QR_FAMILY_KMAX = (2, 4, 8, 16)  # K = 9, 25, 81, 289 components on S^2
QR_FAMILY_ATOMS = 4
QR_FAMILY_T = 100.0
QR_SAMPLES = 15
EIGEN_SIZES = (2, 8, 32, 64, 128)  # on the rows of one RK4 trajectory to t = SIMULATE_T_FINAL, step DT
CSV_ROWS = (101, 1001, 10001)
CSV_SIZE = 8  # a simulate-1d table of this N: 3 N + 1 columns
STAGE_SAMPLES = 7  # for both CSV stages

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
    size N, and for one ensemble shaped like that of `verify-all` (N is then
    the list of its sizes).  The samples go round the ensembles in turn, so
    that a burst of load on a shared machine spreads over all of them."""

    def state(rng, n):
        return jacobi_matrix(offdiag=rng.uniform(0.3, 1.0, n - 1), diag=rng.uniform(-1.0, 1.0, n))

    rng = np.random.default_rng(0)
    ensembles = {(b, n): [state(rng, n) for _ in range(b)] for b in ENSEMBLES for n in SIZES}
    rng = np.random.default_rng(1)
    ensembles[len(VERIFY_ENSEMBLE), VERIFY_ENSEMBLE] = [state(rng, n) for n in VERIFY_ENSEMBLE]
    samples = {key: [] for key in ensembles}
    for i in range(RK4_SAMPLES + 1):
        for key, states in ensembles.items():
            t = time.perf_counter()
            toda_1d.integrate_ensemble(states, RK4_STEPS * DT, DT)
            if i:  # the first round is a warm-up
                samples[key].append((time.perf_counter() - t) / RK4_STEPS)
    return [
        {"B": b, "N": n if isinstance(n, int) else list(n), "step_us": 1e6 * statistics.median(samples[b, n])}
        for b, n in ensembles
    ]


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


def simulate_1d_seconds(cli) -> list:
    """Seconds of one in-process `toda-kdq simulate-1d` (`cli.main`) at
    t = SIMULATE_T_FINAL and dt = DT, for each lattice size N, writing the
    CSV to a temporary file; the samples go round the sizes in turn, and the
    first round is a warm-up."""
    rng = np.random.default_rng(2)
    samples = {n: [] for n in SIMULATE_SIZES}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for n in SIMULATE_SIZES:
            inputs[n] = Path(tmp) / f"state_{n}.json"
            state = {"a": rng.uniform(0.3, 1.0, n - 1).tolist(), "b": rng.uniform(-1.0, 1.0, n).tolist()}
            inputs[n].write_text(json.dumps(state))
        out = str(Path(tmp) / "trajectory.csv")
        for i in range(SIMULATE_SAMPLES + 1):
            for n in SIMULATE_SIZES:
                argv = ["simulate-1d", "--input", str(inputs[n]), "--output", out]
                argv += ["--t-final", repr(SIMULATE_T_FINAL), "--dt", repr(DT)]
                t = time.perf_counter()
                if cli.main(argv) != 0:
                    raise RuntimeError(f"simulate-1d failed at N = {n}")
                if i:
                    samples[n].append(time.perf_counter() - t)
    return [{"N": n, "median_s": statistics.median(samples[n]), "min_s": min(samples[n])} for n in SIMULATE_SIZES]


def harmonic_table_seconds(sphere) -> list:
    """Median seconds of one `sphere.harmonic_table` call on S^2 with all
    (k_max + 1)^2 keys of degree <= k_max, at one point and on the nodes of
    `sphere_nodes(3, 2 k_max)`, for each k_max; the samples go round the
    cases in turn, the first round is a warm-up, and each timed call comes
    right after an untimed one with the same arguments, so that a small
    case is not timed on the caches left cold by the large one before it."""
    point = np.array([0.36, 0.48, 0.8])
    cases = {}
    for k_max in HARMONIC_KMAX:
        keys = [(k, ell) for k in range(k_max + 1) for ell in range(1, 2 * k + 2)]
        cases[k_max, "point"] = (keys, point)
        cases[k_max, "grid"] = (keys, sphere.sphere_nodes(3, 2 * k_max)[0])
    samples = {case: [] for case in cases}
    for i in range(HARMONIC_SAMPLES + 1):
        for case, (keys, theta) in cases.items():
            sphere.harmonic_table(3, keys, theta)
            t = time.perf_counter()
            sphere.harmonic_table(3, keys, theta)
            if i:
                samples[case].append(time.perf_counter() - t)
    return [
        {
            "k_max": k_max,
            "keys": len(cases[k_max, "point"][0]),
            "point_us": 1e6 * statistics.median(samples[k_max, "point"]),
            "grid_points": len(cases[k_max, "grid"][1]),
            "grid_ms": 1e3 * statistics.median(samples[k_max, "grid"]),
        }
        for k_max in HARMONIC_KMAX
    ]


def surfaces_seconds(pseudo_toda) -> list:
    """Median seconds of one `pseudo_toda.flaschka_surfaces(state, 1, theta)`
    on S^2 states with every key of degree <= k_max, each component of N atoms
    with radii in [0.2, 1.2] and masses in [0.2, 1] before normalization, at
    time 0 and evolved to t = 100; the samples go round the cases in turn,
    and the first round is a warm-up."""
    rng = np.random.default_rng(3)
    theta = np.array([0.36, 0.48, 0.8])
    cases = {}
    for k_max in SURFACE_KMAX:
        for n_atoms in SURFACE_ATOMS:
            comps = {}
            for key in [(k, ell) for k in range(k_max + 1) for ell in range(1, 2 * k + 2)]:
                lam = np.sort(rng.uniform(0.2, 1.2, n_atoms))
                while np.min(np.diff(lam)) < 1e-3:
                    lam = np.sort(rng.uniform(0.2, 1.2, n_atoms))
                m = rng.uniform(0.2, 1.0, n_atoms)
                comps[key] = (lam, m / m.sum())
            state = pseudo_toda.PseudoTodaState(3, comps)
            for t in SURFACE_TIMES:
                cases[k_max, n_atoms, t] = pseudo_toda.evolve(state, t)
    samples = {case: [] for case in cases}
    for i in range(SURFACE_SAMPLES + 1):
        for case, state in cases.items():
            t = time.perf_counter()
            pseudo_toda.flaschka_surfaces(state, 1, theta)
            if i:
                samples[case].append(time.perf_counter() - t)
    return [
        {"K": (k_max + 1) ** 2, "N": n_atoms, "t": t, "median_ms": 1e3 * statistics.median(samples[k_max, n_atoms, t])}
        for k_max, n_atoms, t in cases
    ]


def call_seconds(run, samples: int) -> dict:
    """Seconds of one `run()`, after one warm-up call."""
    run()
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        run()
        out.append(time.perf_counter() - t)
    return {"median_s": statistics.median(out), "min_s": min(out), "samples": len(out)}


def check_pseudo_toda_seconds(verify) -> dict:
    """Seconds of one `verify.check_pseudo_toda` with the seed and times of `verify.run_all`."""
    return call_seconds(lambda: verify.check_pseudo_toda(verify._SEED + 7, ode_times=(0.5,)), PSEUDO_CHECK_SAMPLES)


def check_kdq_kernel_seconds(verify) -> dict:
    """Seconds of one `verify.check_kdq_kernel` with the seed and trial count of `verify.run_all`."""
    run = lambda: verify.check_kdq_kernel(verify._SEED + 5, trials=KERNEL_CHECK_TRIALS)  # noqa: E731
    return {"trials": KERNEL_CHECK_TRIALS, **call_seconds(run, KERNEL_CHECK_SAMPLES)}


def hua_kernel_seconds(kdq) -> list:
    """Median seconds of one `kdq.hua_kernel(p, x, k_max)` on S^1 and S^2 at
    |zeta| = 2 |x|, for each k_max; the samples go round the cases in turn,
    and the first round is a warm-up."""
    cases = {}
    for n, theta in ((2, [0.6, 0.8]), (3, [0.0, 0.6, 0.8])):
        x = 0.4 * np.roll(np.asarray(theta), 1)
        cases[n] = (kdq.KDQPoint(0.8 * np.exp(0.7j), theta), x)
    samples = {(n, k_max): [] for n in cases for k_max in HUA_KMAX}
    for i in range(HUA_SAMPLES + 1):
        for (n, k_max), out in samples.items():
            p, x = cases[n]
            t = time.perf_counter()
            kdq.hua_kernel(p, x, k_max)
            if i:
                out.append(time.perf_counter() - t)
    return [{"n": n, "k_max": k_max, "median_us": 1e6 * statistics.median(out)} for (n, k_max), out in samples.items()]


def family_seconds(kdq, pseudo_toda, iso_flow) -> list:
    """Median seconds of `PseudoPositiveMeasure.from_dict` and
    `PseudoTodaState.from_dict` on a JSON-decoded config of K components with
    FAMILY_ATOMS atoms each (every S^2 key of degree <= k_max), and of one
    `pseudo_toda.evolve(state, 1.0)` and one `iso_flow.riccati_evolve(state,
    1.0)` on the states they make; the samples go round the cases in turn,
    and the first round is a warm-up."""
    rng = np.random.default_rng(4)
    cases = {}
    for k_max in FAMILY_KMAX:
        measure, pseudo = [], []
        for k in range(k_max + 1):
            for ell in range(1, 2 * k + 2):
                lam = np.sort(rng.uniform(0.2, 1.2, FAMILY_ATOMS))
                m = rng.uniform(0.2, 1.0, FAMILY_ATOMS)
                measure.append({"k": k, "ell": ell, "atoms": lam.tolist(), "weights": m.tolist()})
                pseudo.append({"k": k, "ell": ell, "lambdas": lam.tolist(), "masses_tilde": (m / m.sum()).tolist()})
        measure = json.loads(json.dumps({"n": 3, "k_max": k_max, "components": measure}))
        pseudo = json.loads(json.dumps({"n": 3, "components": pseudo, "t": 0.0}))
        state = pseudo_toda.PseudoTodaState.from_dict(pseudo)
        iso = iso_flow.state_from_measure(kdq.PseudoPositiveMeasure.from_dict(measure))
        cases[k_max] = {
            "measure_from_dict": lambda d=measure: kdq.PseudoPositiveMeasure.from_dict(d),
            "pseudo_from_dict": lambda d=pseudo: pseudo_toda.PseudoTodaState.from_dict(d),
            "evolve": lambda s=state: pseudo_toda.evolve(s, 1.0),
            "riccati_evolve": lambda s=iso: iso_flow.riccati_evolve(s, 1.0),
        }
    samples = {(k_max, name): [] for k_max, ops in cases.items() for name in ops}
    for i in range(FAMILY_SAMPLES + 1):
        for k_max, ops in cases.items():
            for name, op in ops.items():
                t = time.perf_counter()
                op()
                if i:
                    samples[k_max, name].append(time.perf_counter() - t)
    return [
        {"K": (k_max + 1) ** 2, **{f"{name}_us": 1e6 * statistics.median(samples[k_max, name]) for name in ops}}
        for k_max, ops in cases.items()
    ]


def check_kdq_cauchy_seconds(verify, sphere) -> list:
    """Median seconds of one `verify.check_kdq_cauchy(seed, k_max, CAUCHY_JMAX)`
    with the seed of `verify.run_all`, for each k_max, and the number of
    Almansi monomials it reproduces; the samples go round the sizes in turn,
    and the first round is a warm-up."""
    seed = verify._SEED + 6
    samples = {k_max: [] for k_max in CAUCHY_KMAX}
    for i in range(CAUCHY_SAMPLES + 1):
        for k_max in CAUCHY_KMAX:
            t = time.perf_counter()
            verify.check_kdq_cauchy(seed, k_max, CAUCHY_JMAX)
            if i:
                samples[k_max].append(time.perf_counter() - t)
    return [
        {
            "k_max": k_max,
            "cases": (CAUCHY_JMAX + 1) * sum(sphere.dim_harmonics(n, k) for n in (2, 3) for k in range(k_max + 1)),
            "median_ms": 1e3 * statistics.median(samples[k_max]),
            "min_ms": 1e3 * min(samples[k_max]),
        }
        for k_max in CAUCHY_KMAX
    ]


def qr_flow_seconds(toda_1d, pseudo_toda, jacobi_matrix) -> dict:
    """Median seconds of one `toda_1d.spectral_solve` on a random state
    (a in [0.3, 1], b in [-1, 1]) at times evenly spaced in [0, QR_T_FINAL],
    over the lattice size N and over the number of times, and of one
    `pseudo_toda.family_jacobi` on S^2 states with every key of degree
    <= k_max, QR_FAMILY_ATOMS atoms each, evolved to t = QR_FAMILY_T; the
    samples go round the cases in turn, and the first round is a warm-up."""
    rng = np.random.default_rng(6)
    cases = []  # (curve, parameters, op)
    for n, count in [(n, QR_TIMES_AT_SIZES) for n in QR_SIZES] + [(QR_SIZE_AT_TIMES, c) for c in QR_TIME_COUNTS]:
        state = jacobi_matrix(offdiag=rng.uniform(0.3, 1.0, n - 1), diag=rng.uniform(-1.0, 1.0, n))
        times = np.linspace(0.0, QR_T_FINAL, count)
        cases.append(("spectral_solve", {"N": n, "times": count}, lambda s=state, t=times: toda_1d.spectral_solve(s, t)))
    for k_max in QR_FAMILY_KMAX:
        comps = {}
        for key in [(k, ell) for k in range(k_max + 1) for ell in range(1, 2 * k + 2)]:
            lam = np.sort(rng.uniform(0.2, 1.2, QR_FAMILY_ATOMS))
            while np.min(np.diff(lam)) < 1e-3:
                lam = np.sort(rng.uniform(0.2, 1.2, QR_FAMILY_ATOMS))
            m = rng.uniform(0.2, 1.0, QR_FAMILY_ATOMS)
            comps[key] = (lam, m / m.sum())
        state = pseudo_toda.evolve(pseudo_toda.PseudoTodaState(3, comps), QR_FAMILY_T)
        cases.append(("family_jacobi", {"K": (k_max + 1) ** 2}, lambda s=state: pseudo_toda.family_jacobi(s)))
    samples = [[] for _ in cases]
    for i in range(QR_SAMPLES + 1):
        for (_, _, op), out in zip(cases, samples):
            t = time.perf_counter()
            op()
            if i:
                out.append(time.perf_counter() - t)
    report = {"spectral_solve": [], "family_jacobi": []}
    for (curve, parameters, _), out in zip(cases, samples):
        report[curve].append({**parameters, "median_ms": 1e3 * statistics.median(out)})
    return report


def csv_stage_seconds(toda_1d, moment_1d) -> dict:
    """Median seconds of one `moment_1d.jacobi_eigenvalues` on the rows of
    an RK4 trajectory (`integrate_toda` of a random state to
    SIMULATE_T_FINAL at step DT, 1,001 rows) for each lattice size N, and of
    one `toda_1d._csv_text` on a table of floats drawn from [-1, 1] as wide
    as the `simulate-1d` table of N = CSV_SIZE (3 N + 1 columns) for each
    row count; the samples go round the cases in turn, and the first round
    is a warm-up."""
    rng = np.random.default_rng(7)
    cases = []  # (curve, parameters, op)
    for n in EIGEN_SIZES:
        state = moment_1d.JacobiMatrix(offdiag=rng.uniform(0.3, 1.0, n - 1), diag=rng.uniform(-1.0, 1.0, n))
        traj = toda_1d.integrate_toda(state, SIMULATE_T_FINAL, DT)
        op = lambda b=traj.b, a=traj.a: moment_1d.jacobi_eigenvalues(b, a)  # noqa: E731
        cases.append(("jacobi_eigenvalues", {"N": n, "rows": len(traj)}, op))
    header = ["c"] * (3 * CSV_SIZE + 1)
    for rows in CSV_ROWS:
        table = rng.uniform(-1.0, 1.0, (rows, len(header)))
        cases.append(("csv_text", {"N": CSV_SIZE, "rows": rows}, lambda t=table: toda_1d._csv_text(header, t)))
    samples = [[] for _ in cases]
    for i in range(STAGE_SAMPLES + 1):
        for (_, _, op), out in zip(cases, samples):
            t = time.perf_counter()
            op()
            if i:
                out.append(time.perf_counter() - t)
    report = {"jacobi_eigenvalues": [], "csv_text": []}
    for (curve, parameters, _), out in zip(cases, samples):
        report[curve].append({**parameters, "median_ms": 1e3 * statistics.median(out)})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from toda_kdq import cli, iso_flow, kdq, moment_1d, pseudo_toda, sphere, toda_1d, verify
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
    report["simulate_1d"] = {
        "t_final": SIMULATE_T_FINAL,
        "dt": DT,
        "samples": SIMULATE_SAMPLES,
        "curve": simulate_1d_seconds(cli),
    }
    report["harmonic_table"] = {"n": 3, "samples": HARMONIC_SAMPLES, "curve": harmonic_table_seconds(sphere)}
    report["flaschka_surfaces"] = {"n": 3, "j": 1, "samples": SURFACE_SAMPLES, "curve": surfaces_seconds(pseudo_toda)}
    report["check_pseudo_toda"] = check_pseudo_toda_seconds(verify)
    report["check_kdq_kernel"] = check_kdq_kernel_seconds(verify)
    report["hua_kernel"] = {"zeta_over_x": 2.0, "samples": HUA_SAMPLES, "curve": hua_kernel_seconds(kdq)}
    report["family"] = {"n": 3, "atoms": FAMILY_ATOMS, "samples": FAMILY_SAMPLES}
    report["family"]["curve"] = family_seconds(kdq, pseudo_toda, iso_flow)
    report["check_kdq_cauchy"] = {"j_max": CAUCHY_JMAX, "verify_all_k_max": 3, "samples": CAUCHY_SAMPLES}
    report["check_kdq_cauchy"]["curve"] = check_kdq_cauchy_seconds(verify, sphere)
    report["qr_flow"] = {
        "t_final": QR_T_FINAL,
        "family_atoms": QR_FAMILY_ATOMS,
        "family_t": QR_FAMILY_T,
        "samples": QR_SAMPLES,
        **qr_flow_seconds(toda_1d, pseudo_toda, JacobiMatrix),
    }
    report["csv_stages"] = {"t_final": SIMULATE_T_FINAL, "dt": DT, "samples": STAGE_SAMPLES}
    report["csv_stages"].update(csv_stage_seconds(toda_1d, moment_1d))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["rk4_step"]["curve"]:
        print(f"B = {row['B']:3d}  N = {str(row['N']):>15}  {row['step_us']:8.1f} us/step")
    print(f"import toda_kdq.cli: {report['import_toda_kdq_cli']['median_s']:.3f} s (median)")
    run_all = report["verify_run_all"]
    print(f"verify.run_all(): {run_all['median_s']:.3f} s (median), {run_all['passed']}/{run_all['checks']} checks passed")
    for row in report["simulate_1d"]["curve"]:
        print(f"simulate-1d N = {row['N']:3d}: {row['median_s']:.3f} s (median)")
    for row in report["harmonic_table"]["curve"]:
        print(
            f"harmonic_table k_max = {row['k_max']:2d} ({row['keys']} keys): {row['point_us']:8.1f} us at one point, "
            f"{row['grid_ms']:7.2f} ms on {row['grid_points']} nodes (median)"
        )
    for row in report["flaschka_surfaces"]["curve"]:
        print(
            f"flaschka_surfaces K = {row['K']:3d}  N = {row['N']}  t = {row['t']:5.1f}: "
            f"{row['median_ms']:8.2f} ms (median)"
        )
    print(f"check_pseudo_toda: {1e3 * report['check_pseudo_toda']['median_s']:.1f} ms (median)")
    print(f"check_kdq_kernel: {1e3 * report['check_kdq_kernel']['median_s']:.2f} ms (median)")
    for row in report["hua_kernel"]["curve"]:
        print(f"hua_kernel n = {row['n']} k_max = {row['k_max']:2d}: {row['median_us']:7.1f} us (median)")
    for row in report["family"]["curve"]:
        print(
            f"family K = {row['K']:3d}: from_dict {row['measure_from_dict_us']:8.1f} us (measure), "
            f"{row['pseudo_from_dict_us']:8.1f} us (pseudo state); evolve {row['evolve_us']:7.1f} us, "
            f"riccati_evolve {row['riccati_evolve_us']:7.1f} us (median)"
        )
    for row in report["check_kdq_cauchy"]["curve"]:
        print(
            f"check_kdq_cauchy k_max = {row['k_max']} j_max = {CAUCHY_JMAX} ({row['cases']} cases): "
            f"{row['median_ms']:6.2f} ms (median)"
        )
    for row in report["qr_flow"]["spectral_solve"]:
        print(f"spectral_solve N = {row['N']:2d} at {row['times']:4d} times: {row['median_ms']:8.2f} ms (median)")
    for row in report["qr_flow"]["family_jacobi"]:
        print(f"family_jacobi K = {row['K']:3d} at t = {QR_FAMILY_T}: {row['median_ms']:7.2f} ms (median)")
    for row in report["csv_stages"]["jacobi_eigenvalues"]:
        print(f"jacobi_eigenvalues N = {row['N']:3d} on {row['rows']} rows: {row['median_ms']:8.2f} ms (median)")
    for row in report["csv_stages"]["csv_text"]:
        print(f"_csv_text N = {row['N']} on {row['rows']:5d} rows: {row['median_ms']:8.2f} ms (median)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
