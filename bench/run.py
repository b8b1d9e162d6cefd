"""Layer curves of `toda_kdq`, alone or beside another tree, in one JSON file.

    python3 bench/run.py OUT.json [--against PATH]

`CASES`, at the end, is the list of curves: a builder named after its curve,
and its parameters.  From a loaded `toda_kdq` the builder makes one op to
time, from inputs drawn with fixed seeds.  One sampler calls every op once,
then runs ROUNDS rounds that visit every case in turn; each case records the
median and quartiles of its seconds per call; a sample of an op shorter than
MIN_SAMPLE_S times enough back-to-back calls to last that long.
`--against PATH` loads the `toda_kdq` of PATH, a `src/` directory, a second
time as `toda_kdq_against`.
Each round then times each case on this checkout ("this") and on PATH
("against") back to back, the first of the two alternating by round, and
the case also records the median and quartiles of the ratio this / against
and the wins of "this".  A tree that lacks a name a case needs
(AttributeError) is recorded as absent (null).  BLAS runs on one thread.
After the rounds, the tier-1 suite of this checkout runs once, untimed by
the sampler (`tier1`): the file records its wall time and its counts.
"""

import os
import sys

if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy is first imported
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# timed rounds after the warm-up; in an A/A run a case wins 27 or more of 30
# fair pairs with odds of about 4e-6, so a 9-of-10 win count means a change
ROUNDS = 30
# an op whose last timed call took less than this is called once untimed
# before the next: run after a larger case, its first call met cold caches, and
# in an A/A run a sub-millisecond ratio read about 0.6 or 1.7 by which tree went first
PRIME_S = 0.01
# one sample times back-to-back calls of an op for at least this long, as many
# on both trees, and records seconds per call: in an A/A run, samples of one
# call of under 0.1 ms read per-round ratios with quartiles about [0.78, 1.30]
MIN_SAMPLE_S = 1e-3
DT = 1e-3  # the step of every RK4 run here
THETA = np.array([0.36, 0.48, 0.8])  # the S^2 point of harmonic_table and flaschka_surfaces


def load(name: str, src: Path):
    """Import `src/toda_kdq`, with its `cli`, as the package `name`.  The
    package's modules import each other relatively, so two trees load side
    by side under two names."""
    pkg = src / "toda_kdq"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def measure(cases, trees: dict, rounds: int) -> list:
    """One record per case: curve, parameters and, per tree, the median and
    quartiles of its seconds per call (None where the tree lacks a name the
    case needs), and the calls per sample; with two trees, the median and
    quartiles of the per-round ratio first / second, and the first tree's
    wins out of the pairs run."""
    ops = [{name: _warm(build, tk, params) for name, tk in trees.items()} for build, params in cases]
    samples = [{name: [] for name, op in row.items() if op is not None} for row in ops]
    calls = [_calls_per_sample([op for op in row.values() if op is not None]) for row in ops]
    for i in range(rounds):
        for row, out, n in zip(ops, samples, calls):
            for name in out if i % 2 == 0 else reversed(out):
                if out[name] and out[name][-1] < PRIME_S:
                    row[name]()
                t = time.perf_counter()
                for _ in range(n):
                    row[name]()
                out[name].append((time.perf_counter() - t) / n)
    records = []
    for (build, params), out, n in zip(cases, samples, calls):
        record = {"curve": build.__name__, "params": params, "calls_per_sample": n}
        record.update({name: _spread(out[name], "_s") if name in out else None for name in trees})
        if len(out) == 2:
            first, second = out.values()
            wins = sum(a < b for a, b in zip(first, second))
            record["ratio"] = {**_spread([a / b for a, b in zip(first, second)]), "wins": wins, "pairs": rounds}
        records.append(record)
    return records


def _warm(build, tk, params: dict):
    try:
        op = build(tk, **params)
        op()
    except AttributeError:
        return None
    return op


def _calls_per_sample(ops: list) -> int:
    """Calls that make one sample last MIN_SAMPLE_S on the fastest of `ops`,
    each timed by the shortest of three calls."""
    fastest = MIN_SAMPLE_S
    for op in ops:
        for _ in range(3):
            t = time.perf_counter()
            op()
            fastest = min(fastest, time.perf_counter() - t)
    return math.ceil(MIN_SAMPLE_S / fastest)


def _spread(samples: list, unit: str = "") -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"median{unit}": median, f"quartiles{unit}": [q1, q3]}


def _text(record: dict, names: list) -> str:
    cols = [" ".join([record["curve"], *(f"{k}={v}" for k, v in record["params"].items())]).ljust(50)]
    cols += [f"{n} absent" if record[n] is None else f"{n} {1e3 * record[n]['median_s']:9.3f} ms" for n in names]
    if "ratio" in record:
        r = record["ratio"]
        cols.append(f"ratio {r['median']:.3f} [{r['quartiles'][0]:.3f}, {r['quartiles'][1]:.3f}]")
        cols.append(f"wins {r['wins']}/{r['pairs']}")
    return "  ".join(cols)


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def tier1(root: Path) -> dict:
    """One run of `python -m pytest -q` in the checkout `root`: its wall
    time, its exit code and the counts of its summary line, such as
    {"passed": 660}."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"command": "python -m pytest -q", "wall_s": wall, "exit_code": proc.returncode, **counts}


def _jacobi(tk, rng, n: int):
    # a random Flaschka state: couplings in [0.3, 1], diagonal in [-1, 1]
    return tk.moment_1d.JacobiMatrix(offdiag=rng.uniform(0.3, 1.0, n - 1), diag=rng.uniform(-1.0, 1.0, n))


def _s2_components(seed: int, K: int, atoms: int) -> dict:
    # the first K keys (k, ell) of S^2 in degree order, each with `atoms` radii
    # in [0.2, 1.2] at least 1e-3 apart and masses in [0.2, 1] scaled to sum to one
    rng = np.random.default_rng(seed)
    keys = ((k, ell) for k in itertools.count() for ell in range(1, 2 * k + 2))
    comps = {}
    for key in itertools.islice(keys, K):
        lam = np.sort(rng.uniform(0.2, 1.2, atoms))
        while np.min(np.diff(lam)) < 1e-3:
            lam = np.sort(rng.uniform(0.2, 1.2, atoms))
        m = rng.uniform(0.2, 1.0, atoms)
        comps[key] = (lam, m / m.sum())
    return comps


def _fresh_env(src: Path) -> tuple:
    """(temporary directory, environment) of a fresh interpreter on `src`:
    its bytecode goes to and comes from the directory, empty at first, so a
    `__pycache__` that the tree holds or lacks does not count, and the
    warm-up call fills it as it would fill the tree's own cache."""
    cache = tempfile.TemporaryDirectory()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache.name)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return cache, env


def import_toda_kdq_cli(tk):
    """A fresh interpreter that imports `toda_kdq.cli` from the tree's `src/`, start-up included."""
    src = Path(tk.__file__).resolve().parents[1]
    cache, env = _fresh_env(src)
    argv = [sys.executable, "-c", "import toda_kdq.cli; print(toda_kdq.cli.__file__)"]

    def op(cache=cache):  # the cache is removed with the op that holds it
        path = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True).stdout.strip()
        if not Path(path).resolve().is_relative_to(src):
            raise RuntimeError(f"a fresh interpreter imported toda_kdq from {path}, not from {src}")

    return op


# a small fixed input of each command (verify-all reads none) and its time flags
_MEASURE = {
    "n": 3,
    "k_max": 1,
    "components": [
        {"k": 0, "ell": 1, "atoms": [0.5, 1.0], "weights": [0.5, 0.5]},
        {"k": 1, "ell": 2, "atoms": [0.8], "weights": [1.0]},
    ],
}
COMMANDS = {
    "simulate-1d": ({"a": [0.5], "b": [0.0, 0.0]}, ["--t-final", "0.01"]),
    "spectral-solve": ({"a": [0.5], "b": [0.0, 0.0]}, ["--t-final", "0.01"]),
    "simulate-pseudo": (
        {"n": 3, "components": [{"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]}]},
        ["--t-final", "0.01"],
    ),
    "transform-eval": ({"measure": _MEASURE, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]}, []),
    "nevanlinna-check": (
        {"kind": "1d", "measure": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}, "N": 1, "y": [10.0, 100.0]},
        [],
    ),
    "iso-flow": ({"measure": _MEASURE, "t_grid": [0.0, 1.0]}, []),
    "verify-all": (None, []),
}


def cli_process(tk, command):
    """A fresh interpreter that runs `python -m toda_kdq.cli command` from the
    tree's `src/` on its input in COMMANDS, start-up included."""
    src = Path(tk.__file__).resolve().parents[1]
    config, flags = COMMANDS[command]
    tmp = tempfile.TemporaryDirectory()  # removed with the op that holds it
    argv = [sys.executable, "-m", "toda_kdq.cli", command, *flags, "--output", str(Path(tmp.name) / "out")]
    if config is not None:
        (Path(tmp.name) / "in.json").write_text(json.dumps(config))
        argv += ["--input", str(Path(tmp.name) / "in.json")]
    cache, env = _fresh_env(src)

    def op(tmp=tmp, cache=cache):
        # run in src/, the first entry of a -m interpreter's path
        subprocess.run(argv, cwd=src, env=env, capture_output=True, timeout=60, check=True)

    return op


def rk4_step(tk, B, N, steps):
    """`steps` RK4 steps of `toda_1d.integrate_ensemble` on B random states of N sites (a list N: one of each)."""
    rng = np.random.default_rng(0)
    states = [_jacobi(tk, rng, n) for n in (N if isinstance(N, list) else [N] * B)]
    return lambda: tk.toda_1d.integrate_ensemble(states, steps * DT, DT)


def verify(tk, check, seed=None, **kwargs):
    """One in-process `verify.<check>`, its seed `verify._SEED + seed` as in `verify.run_all`."""
    run = getattr(tk.verify, check)
    args = () if seed is None else (tk.verify._SEED + seed,)
    return lambda: run(*args, **kwargs)


def simulate_1d(tk, N, t_final):
    """One in-process `toda-kdq simulate-1d` (`cli.main`) of a random state, the CSV to a temporary file."""
    rng = np.random.default_rng(2)
    tmp = tempfile.TemporaryDirectory()  # removed with the op that holds it
    state, out = Path(tmp.name) / "state.json", Path(tmp.name) / "trajectory.csv"
    state.write_text(json.dumps({"a": rng.uniform(0.3, 1.0, N - 1).tolist(), "b": rng.uniform(-1.0, 1.0, N).tolist()}))
    argv = ["simulate-1d", "--input", str(state), "--output", str(out), "--t-final", repr(t_final), "--dt", repr(DT)]

    def op(tmp=tmp):
        if tk.cli.main(argv) != 0:
            raise RuntimeError(f"simulate-1d failed at N = {N}")

    return op


def harmonic_table(tk, k_max, at):
    """One `sphere.harmonic_table` of every S^2 key of degree <= k_max, at THETA or on `sphere_nodes(3, 2 k_max)`."""
    keys = [(k, ell) for k in range(k_max + 1) for ell in range(1, 2 * k + 2)]
    theta = THETA if at == "point" else tk.sphere.sphere_nodes(3, 2 * k_max)[0]
    return lambda: tk.sphere.harmonic_table(3, keys, theta)


def flaschka_surfaces(tk, K, N, t):
    """One `pseudo_toda.flaschka_surfaces(state, 1, THETA)` of K components of N atoms evolved to time t."""
    state = tk.pseudo_toda.evolve(tk.pseudo_toda.PseudoTodaState(3, _s2_components(3, K, N)), t)
    return lambda: tk.pseudo_toda.flaschka_surfaces(state, 1, THETA)


def hua_kernel(tk, n, k_max):
    """One `kdq.hua_kernel(p, x, k_max)` on S^(n-1) at |zeta| = 2 |x|."""
    theta = [0.6, 0.8] if n == 2 else [0.0, 0.6, 0.8]
    p, x = tk.kdq.KDQPoint(0.8 * np.exp(0.7j), theta), 0.4 * np.roll(theta, 1)
    return lambda: tk.kdq.hua_kernel(p, x, k_max)


def family(tk, K, N, op):
    """One `op` on K components of N atoms: reading a JSON-decoded measure
    (measure_from_dict) or pseudo-Toda state (pseudo_from_dict) by the
    tree's `cli` reader, or by `from_dict` on a tree whose layers have it,
    or `pseudo_toda.evolve` of such a state to t = 1."""
    comps = _s2_components(4, K, N)

    def config(atoms, weights, **fields):  # as decoded from a JSON file: lists of Python floats
        items = [{"k": k, "ell": e, atoms: r.tolist(), weights: m.tolist()} for (k, e), (r, m) in comps.items()]
        return {"n": 3, "components": items, **fields}

    measure, pseudo = config("atoms", "weights"), config("lambdas", "masses_tilde", t=0.0)
    state = tk.pseudo_toda.PseudoTodaState(3, comps)
    read_measure = getattr(tk.cli, "_read_measure", None) or tk.kdq.PseudoPositiveMeasure.from_dict
    read_pseudo = getattr(tk.cli, "_read_pseudo_state", None) or tk.pseudo_toda.PseudoTodaState.from_dict
    return {
        "measure_from_dict": lambda: read_measure(measure),
        "pseudo_from_dict": lambda: read_pseudo(pseudo),
        "evolve": lambda: tk.pseudo_toda.evolve(state, 1.0),
    }[op]


def markov_stieltjes(tk, K, points):
    """One `kdq.markov_stieltjes(mu, zetas, THETA)` of a measure of K components of 3 atoms at `points` zetas
    with |zeta| = 2 and arg zeta in [-2, 2], some with Re zeta < 0.  A tree whose transform takes a list of
    `KDQPoint`s, as its `transform-eval` built them, builds one per zeta in the op."""
    mu = tk.kdq.PseudoPositiveMeasure(3, _s2_components(4, K, 3))
    zetas = 2.0 * np.exp(1j * np.linspace(-2.0, 2.0, points))
    if len(inspect.signature(tk.kdq.markov_stieltjes).parameters) == 2:
        return lambda: tk.kdq.markov_stieltjes(mu, [tk.kdq.KDQPoint(z, THETA) for z in zetas])
    return lambda: tk.kdq.markov_stieltjes(mu, zetas, THETA)


def monotonicity_check(tk, K, N, times):
    """One `iso_flow.monotonicity_check` of a measure of K components of N atoms on `times` grid times evenly
    spaced in [0, 10].  A tree whose flow read a state of its own reads the measure's `family` as it read the
    state's, so the case runs on it unchanged."""
    mu = tk.kdq.PseudoPositiveMeasure(3, _s2_components(8, K, N))
    grid = np.linspace(0.0, 10.0, times)
    return lambda: tk.iso_flow.monotonicity_check(mu, grid)


def spectral_solve(tk, N, times, t_final):
    """One `toda_1d.spectral_solve` of a random state of N sites at `times` times evenly spaced in [0, t_final]."""
    state = _jacobi(tk, np.random.default_rng(6), N)
    grid = np.linspace(0.0, t_final, times)
    return lambda: tk.toda_1d.spectral_solve(state, grid)


def family_jacobi(tk, K, N, t):
    """One `pseudo_toda.family_jacobi` of K components of N atoms evolved to time t."""
    state = tk.pseudo_toda.evolve(tk.pseudo_toda.PseudoTodaState(3, _s2_components(6, K, N)), t)
    return lambda: tk.pseudo_toda.family_jacobi(state)


def jacobi_eigenvalues(tk, N, rows, dt=DT):
    """One `moment_1d.jacobi_eigenvalues` on the rows of an RK4 trajectory of N sites and step dt: the CSV's
    lambda columns.  A larger dt lets the rows' spectra drift further from the first row's."""
    traj = tk.toda_1d.integrate_toda(_jacobi(tk, np.random.default_rng(7), N), (rows - 1) * dt, dt)
    return lambda: tk.moment_1d.jacobi_eigenvalues(traj.b, traj.a)


def csv_text(tk, N, rows):
    """One `toda_1d._csv_text` of floats in [-1, 1], as wide as the `simulate-1d` table of N sites: no value repeats."""
    header = ["c"] * (3 * N + 1)
    table = np.random.default_rng(7).uniform(-1.0, 1.0, (rows, len(header)))
    return lambda: tk.toda_1d._csv_text(header, table)


def trajectory_csv(tk, N, rows):
    """One `toda_1d.trajectory_to_csv` of an RK4 trajectory of N sites and `rows` rows: the `simulate-1d` CSV,
    whose H and lambda columns repeat their values down the rows."""
    traj = tk.toda_1d.integrate_toda(_jacobi(tk, np.random.default_rng(7), N), (rows - 1) * DT, DT)
    return lambda: tk.toda_1d.trajectory_to_csv(traj)


# every curve and size; a verify check's seed is its offset in verify.run_all
CASES = [
    (import_toda_kdq_cli, {}),
    *[(cli_process, {"command": command}) for command in COMMANDS],
    *[(rk4_step, {"B": b, "N": n, "steps": 200}) for b in (1, 5, 20) for n in (2, 8, 32, 128)],
    (rk4_step, {"B": 5, "N": [2, 3, 4, 5, 6], "steps": 200}),  # the RK4 ensemble of verify-all
    (verify, {"check": "run_all"}),
    *[(simulate_1d, {"N": n, "t_final": 1.0}) for n in (2, 8, 32, 64)],
    *[(harmonic_table, {"k_max": k, "at": at}) for k in (2, 4, 8, 16, 24, 32) for at in ("point", "grid")],
    *[(flaschka_surfaces, {"K": K, "N": n, "t": t}) for K in (9, 25, 81, 289) for n in (4, 6) for t in (0.0, 100.0)],
    (verify, {"check": "check_pseudo_toda", "seed": 7, "ode_times": [0.5]}),  # at its verify-all size
    (verify, {"check": "check_kdq_kernel", "seed": 5, "trials": 15}),  # at its verify-all size
    *[(hua_kernel, {"n": n, "k_max": k}) for n in (2, 3) for k in (5, 10, 20, 40, 80)],  # 40 in verify-all
    *[(family, {"K": K, "N": 4, "op": op}) for K in (9, 25, 81, 289, 625) for op in ("measure_from_dict", "pseudo_from_dict", "evolve")],
    *[(markov_stieltjes, {"K": K, "points": p}) for K in (81, 625) for p in (8, 32, 128)],  # 625: transform-eval's n = 3
    *[(verify, {"check": "check_kdq_cauchy", "seed": 6, "k_max": k, "j_max": 2}) for k in (1, 2, 3, 4, 5)],
    *[(monotonicity_check, {"K": 9, "N": 3, "times": c}) for c in (21, 81, 321)],
    *[(spectral_solve, {"N": n, "times": 101, "t_final": 10.0}) for n in (2, 4, 8, 16, 32, 64)],
    *[(spectral_solve, {"N": 8, "times": c, "t_final": 10.0}) for c in (1, 11, 1001)],  # and 101, above
    *[(family_jacobi, {"K": K, "N": 4, "t": 100.0}) for K in (9, 25, 81, 289)],
    *[(jacobi_eigenvalues, {"N": n, "rows": 1001}) for n in (2, 8, 32, 64, 128)],
    (jacobi_eigenvalues, {"N": 64, "rows": 1001, "dt": 0.01}),  # drifting rows: two Newton steps each
    *[(csv_text, {"N": 8, "rows": r}) for r in (101, 1001, 10001)],
    *[(trajectory_csv, {"N": n, "rows": 1001}) for n in (2, 8, 32, 64)],
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, help="a src/ directory whose toda_kdq is timed beside this checkout's")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    trees = {"this": load("toda_kdq", root / "src")}
    if args.against:
        trees["against"] = load("toda_kdq_against", args.against.resolve())
    records = measure(CASES, trees, ROUNDS)
    report = {"machine": machine(), "rounds": ROUNDS, "tier1": tier1(root), "cases": records}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for record in records:
        print(_text(record, list(trees)))
    print(f"tier 1: {report['tier1']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
