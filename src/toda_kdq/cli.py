"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Commands
--------
simulate-1d     RK4 trajectory of a Flaschka state; CSV t, a_*, b_*, H, lambda_*.
                input: {"schema": 1, "a": [...], "b": [...]}
spectral-solve  Same sampling computed through the exact (QR) solution.
simulate-pseudo Tilde-mass trajectories and total Hamiltonian of a state file
                ({"schema": 1, "n":, "N":, "components": [...], "t":}).
transform-eval  Transform values of a measure at given points:
                {"schema": 1, "measure": <measure dict>, "theta": [...],
                 "zetas": [[re, im], ...]}.
nevanlinna-check  Residual table; {"kind": "1d", "measure": {...}, "N":, "y": [...]}
                or {"kind": "multi", "measure": <measure dict>, "k":, "ell":,
                "N":, "zeta_abs": [...]} (ray arg zeta^2 = pi/2), each residual
                the exact moment remainder; exit 3, naming the point, unless
                they decrease (and, with --tol, end at or below it).
iso-flow        Functional values on a time grid plus monotonicity verdict;
                {"schema": 1, "measure": <measure dict>, "t_grid": [...]};
                exit 3, naming the time and the component, if a functional
                rises by more than --tol (default 1e-12).
verify-all      Run the bundled invariant suite; prints one PASS/FAIL line
                per check.

Float fields hold JSON numbers only.  A list field takes a bare number as one
entry and refuses a list of lists; zetas is a list of [re, im] pairs.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (positivity
loss, divergence region, pole, overflow, an eigensolver that does not
converge, or a failed check).  Outputs are byte-identical
across runs for identical inputs: fixed seeds, fixed summation order, floats
rendered with shortest round-trip repr.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

# every command reads its JSON fields through moment_1d and writes CSV through
# toda_1d; the other layers stay unloaded until a runner reaches into them
from . import iso_flow, kdq, pseudo_toda, sphere, verify
from .errors import (
    DivergenceRegionError,
    PoleError,
    PositivityLossError,
    RankDeficiencyError,
)
from .moment_1d import DiscreteMeasure, JacobiMatrix, _as_vector, _json_field, _json_float, _json_int, nevanlinna_limit_check
from .toda_1d import _csv_text, integrate_toda, spectral_solve, trajectory_to_csv

__all__ = ["main"]

# the commands whose CSV has one row per time 0, dt, ..., round(t_final/dt) dt
_TIMED = ("simulate-1d", "spectral-solve", "simulate-pseudo")
_READS_TOL = ("nevanlinna-check", "iso-flow")
# largest rows x width of such a grid, width the lattice size N or the atom
# count of a pseudo state; a larger grid is a configuration error, raised
# before anything is allocated (10^7 cells are 80 MB per stored array)
_MAX_CELLS = 10**7


class ConfigError(Exception):
    pass


def _validate(args: argparse.Namespace) -> None:
    """ConfigError unless the parsed flags fit the command."""
    if not (0.0 < args.t_final < np.inf and 0.0 < args.dt < np.inf):
        raise ConfigError(f"t-final and dt must be positive and finite, got {args.t_final!r} and {args.dt!r}")
    if args.command in _TIMED:
        _rows(args, 1)
    if args.k_max is not None and args.k_max < 0:
        raise ConfigError("kmax must be nonnegative")
    if args.tol is not None and args.command in _READS_TOL and not 0.0 <= args.tol < np.inf:
        raise ConfigError(f"--tol must be nonnegative and finite, got {args.tol!r}")
    if args.command != "verify-all" and args.input_path is None:
        raise ConfigError(f"{args.command} requires --input")


def _rows(args: argparse.Namespace, width: int) -> int:
    """Row count of the time grid; ConfigError if rows x width exceeds
    _MAX_CELLS or the last time round(t_final/dt) dt overflows."""
    steps = args.t_final / args.dt
    rows = round(steps) + 1 if steps < _MAX_CELLS else np.inf
    if rows * width > _MAX_CELLS:
        raise ConfigError(
            f"a grid of t-final / dt = {steps!r} steps and {width} values a row "
            f"exceeds {_MAX_CELLS} cells"
        )
    if not (rows - 1) * args.dt < np.inf:
        raise ConfigError(f"the last time {rows - 1} * dt of the grid overflows")
    return rows


@contextmanager
def _stage(prefix: str, errors=(ValueError, TypeError)):
    """One reading stage: any of `errors` the block raises becomes a ConfigError prefixed by `prefix`;
    a ConfigError of a stage inside it keeps its own prefix."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(data).__name__}")
    return data


def _emit(text: str, output_path: str | None):
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sample_times(args: argparse.Namespace, width: int) -> np.ndarray:
    return args.dt * np.arange(_rows(args, width))


def _run_lattice(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    with _stage("bad 1-d state: "):
        a, b = (_as_vector(name, _json_float(data, name)) for name in ("a", "b"))
        state = JacobiMatrix(offdiag=a, diag=b)
    if args.command == "simulate-1d":
        _rows(args, state.n)  # before integrate_toda allocates the grid
        traj = integrate_toda(state, args.t_final, args.dt)
    else:
        traj = spectral_solve(state, _sample_times(args, state.n))
    _emit(trajectory_to_csv(traj), args.output_path)
    return 0


def _run_simulate_pseudo(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    with _stage("bad pseudo state: "):
        state = pseudo_toda.PseudoTodaState.from_dict(data)
        state.common_size()  # the CSV needs one atom count shared by all components
    times = _sample_times(args, state.family.radii.size)
    _emit(pseudo_toda.state_trajectory_csv(state, times), args.output_path)
    return 0


def _measure_from_config(data: dict, reader=None):  # None: the quadric measure's reader
    with _stage("bad measure: "):
        return (reader or kdq.PseudoPositiveMeasure.from_dict)(_json_field(data, "measure"))


def _run_transform_eval(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    # --kmax truncates the component series
    mu = _measure_from_config(data).truncated(kdq.DEFAULT_KMAX if args.k_max is None else args.k_max)
    with _stage("bad transform-eval config: "):
        theta = sphere.as_direction(mu.n, _json_float(data, "theta"))
        pairs = _json_float(data, "zetas")
        if pairs.shape != (0,) and pairs.shape[1:] != (2,):
            raise ValueError(f"zetas must be a list of [re, im] pairs, got shape {pairs.shape}")
        zetas = pairs.reshape(-1, 2).view(complex)[:, 0].tolist()
        if not np.all(np.isfinite(zetas)):
            raise ValueError(f"zetas must be finite, got {zetas}")
    vals = kdq.markov_stieltjes(mu, [kdq.KDQPoint(z, theta) for z in zetas])
    rows = [[z.real, z.imag, val.real, val.imag] for z, val in zip(zetas, vals)]
    _emit(_csv_text(["zeta_re", "zeta_im", "value_re", "value_im"], rows), args.output_path)
    return 0


def _run_nevanlinna(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    kind = data.get("kind", "1d")
    if kind not in ("1d", "multi"):
        raise ConfigError(f"unknown nevanlinna kind {kind!r}")
    grid, values = ("y", "y values") if kind == "1d" else ("zeta_abs", "zeta_abs")
    mu = _measure_from_config(data, DiscreteMeasure.from_dict) if kind == "1d" else _measure_from_config(data)
    with _stage("bad nevanlinna config: ", (ValueError, TypeError, OverflowError)):
        if kind == "multi":
            idx = (_json_int(data, "k"), _json_int(data, "ell"))
        n_trunc = _json_int(data, "N")
        points = _as_vector(grid, _json_float(data, grid)).tolist()
        if n_trunc < 0 or not points:
            raise ValueError(f"need N >= 0 and a nonempty {grid}")
        if not all(0.0 < v < np.inf for v in points):
            raise ValueError(f"{values} must be positive and finite, got {points}")
        # every residual of a target without (tilde) mass is 0
        if kind == "1d" and not len(mu):
            raise ValueError("the measure has no atoms")
        if kind == "multi" and not (
            idx in mu.family.keys and ((mu.family.component(idx)[0] > 0.0) | (idx[0] == 0)).any()
        ):
            raise ValueError(f"the measure has no component (k, ell) = {idx} with tilde mass r^k w > 0")
    if kind == "1d":
        res = nevanlinna_limit_check(mu, n_trunc, points)
    else:
        res = kdq.multi_nevanlinna_check(mu, idx, n_trunc, [v * np.exp(1j * np.pi / 4) for v in points])
    _emit(_csv_text([grid, "residual"], np.column_stack([points, res])), args.output_path)
    res = res.tolist()
    rise = next((i for i in range(1, len(res)) if not res[i] < res[i - 1]), None)
    if rise is not None:
        failure = f"at {grid} = {points[rise]!r} the residual {res[rise]!r} does not decrease from {res[rise - 1]!r}"
    elif args.tol is not None and not res[-1] <= args.tol:
        failure = f"at {grid} = {points[-1]!r} the last residual {res[-1]!r} is above --tol {args.tol!r}"
    else:
        return 0
    sys.stderr.write(f"numeric failure: {failure}\n")
    return 3


def _run_iso_flow(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    mu = _measure_from_config(data)
    times = _sample_times(args, len(mu.family.keys)) if "t_grid" not in data else None
    with _stage("bad iso-flow config: "):
        if not mu.family.keys:
            raise ValueError("the measure has no components")
        state = iso_flow.state_from_measure(mu)  # every component needs an atom
        times = iso_flow._grid_times(_json_float(data, "t_grid") if times is None else times)
    tol = args.tol if args.tol is not None else 1e-12
    rep = iso_flow.monotonicity_check(state, times, tol=tol)
    keys = sorted(rep.values)
    header = ["t"] + [f"S_k{k}_l{ell}" for k, ell in keys]
    table = np.column_stack([rep.times] + [rep.values[key] for key in keys])
    _emit(_csv_text(header, table), args.output_path)
    sys.stdout.write(
        f"monotone={rep.passed} max_increase={rep.max_increase!r} "
        f"max_derivative_residual={rep.max_derivative_residual!r}\n"
    )
    if rep.passed:
        return 0
    rises = np.diff(table[:, 1:], axis=0)
    i, c = np.argwhere(rises > tol)[0].tolist()
    sys.stderr.write(
        f"numeric failure: at t = {float(rep.times[i + 1])!r} S_{{k,l}} of component {keys[c]} "
        f"rises by {float(rises[i, c])!r}, above --tol {tol!r}\n"
    )
    return 3


def _run_verify_all(args: argparse.Namespace) -> int:
    # load every layer before the first check allocates: a layer compiled while
    # the checks hold their arrays adds its compile-time memory to their peak
    for layer in (sphere, kdq, pseudo_toda, iso_flow, verify):
        layer.__name__  # noqa: B018  (any attribute access runs a lazy layer)
    results = verify.run_all()
    table = verify.format_table(results)
    sys.stdout.write(table)
    if args.output_path is not None:
        _emit(table, args.output_path)
    return 0 if all(r.passed for r in results) else 3


_RUNNERS = {
    "simulate-1d": _run_lattice,
    "spectral-solve": _run_lattice,
    "simulate-pseudo": _run_simulate_pseudo,
    "transform-eval": _run_transform_eval,
    "nevanlinna-check": _run_nevanlinna,
    "iso-flow": _run_iso_flow,
    "verify-all": _run_verify_all,
}


@cache  # built on the first `main` call, not at import: one parser per process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toda-kdq", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--input", dest="input_path", default=None)
    parser.add_argument("--output", dest="output_path", default=None)
    parser.add_argument("--t-final", dest="t_final", type=float, default=5.0)
    parser.add_argument("--dt", dest="dt", type=float, default=1e-3)
    parser.add_argument("--kmax", dest="k_max", type=int, default=None)  # None: transform-eval truncates at kdq.DEFAULT_KMAX
    parser.add_argument("--tol", dest="tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    """Parse `argv` (default: the process's arguments), check and run; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        _validate(args)
        return _RUNNERS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (
        PositivityLossError,
        DivergenceRegionError,
        PoleError,
        RankDeficiencyError,
        OverflowError,
        ZeroDivisionError,
        np.linalg.LinAlgError,
    ) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
