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
                the exact moment remainder; exit 3 unless they decrease (and,
                with --tol, end at or below it).
iso-flow        Functional values on a time grid plus monotonicity verdict;
                {"schema": 1, "measure": <measure dict>, "t_grid": [...]}.
verify-all      Run the bundled invariant suite; prints one PASS/FAIL line
                per check.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (positivity
loss, divergence region, pole, overflow, an eigensolver that does not
converge, or a failed check).  Outputs are byte-identical
across runs for identical inputs: fixed seeds, fixed summation order, floats
rendered with shortest round-trip repr.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import iso_flow, kdq, pseudo_toda, toda_1d
from .errors import (
    DivergenceRegionError,
    PoleError,
    PositivityLossError,
    RankDeficiencyError,
)
from .moment_1d import DiscreteMeasure, JacobiMatrix, nevanlinna_limit_check
from .sphere import as_direction
from .verify import format_table, run_all

__all__ = ["RunConfig", "run", "main"]

_COMMANDS = (
    "simulate-1d",
    "spectral-solve",
    "simulate-pseudo",
    "transform-eval",
    "nevanlinna-check",
    "iso-flow",
    "verify-all",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    t_final: float = 5.0
    dt: float = 1e-3
    k_max: int = kdq.DEFAULT_KMAX
    tol: float | None = None

    def validate(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.t_final <= 0.0 or self.dt <= 0.0:
            raise ConfigError("t-final and dt must be positive")
        if self.k_max < 0:
            raise ConfigError("kmax must be nonnegative")
        if self.command != "verify-all" and self.input_path is None:
            raise ConfigError(f"{self.command} requires --input")


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


def _sample_times(cfg: RunConfig) -> np.ndarray:
    n_steps = int(round(cfg.t_final / cfg.dt))
    return cfg.dt * np.arange(n_steps + 1)


def _flaschka_from_config(data: dict) -> JacobiMatrix:
    try:
        return JacobiMatrix(offdiag=data["a"], diag=data["b"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad 1-d state: {exc}") from exc


def _run_simulate_1d(cfg: RunConfig) -> int:
    state = _flaschka_from_config(_load_json(cfg.input_path))
    traj = toda_1d.integrate_toda(state, cfg.t_final, cfg.dt)
    _emit(toda_1d.trajectory_to_csv(traj), cfg.output_path)
    return 0


def _run_spectral_solve(cfg: RunConfig) -> int:
    state = _flaschka_from_config(_load_json(cfg.input_path))
    traj = toda_1d.spectral_solve(state, _sample_times(cfg))
    _emit(toda_1d.trajectory_to_csv(traj), cfg.output_path)
    return 0


def _run_simulate_pseudo(cfg: RunConfig) -> int:
    try:
        state = pseudo_toda.PseudoTodaState.from_dict(_load_json(cfg.input_path))
        state.common_size()  # the CSV needs one atom count shared by all components
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad pseudo state: {exc}") from exc
    _emit(pseudo_toda.state_trajectory_csv(state, _sample_times(cfg)), cfg.output_path)
    return 0


def _measure_from_dict(d: dict) -> kdq.PseudoPositiveMeasure:
    try:
        return kdq.PseudoPositiveMeasure.from_dict(d)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad measure: {exc}") from exc


def _run_transform_eval(cfg: RunConfig) -> int:
    data = _load_json(cfg.input_path)
    mu = _measure_from_dict(data.get("measure", {}))
    mu = mu.truncated(cfg.k_max)  # --kmax truncates the component series
    try:
        theta = as_direction(mu.n, data["theta"])
        zetas = [complex(re, im) for re, im in data["zetas"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad transform-eval config: {exc}") from exc
    if not np.all(np.isfinite(zetas)):
        raise ConfigError(f"bad transform-eval config: zetas must be finite, got {zetas}")
    vals = kdq.markov_stieltjes(mu, [kdq.KDQPoint(z, theta) for z in zetas])
    rows = [[z.real, z.imag, val.real, val.imag] for z, val in zip(zetas, vals)]
    _emit(toda_1d._csv_text(["zeta_re", "zeta_im", "value_re", "value_im"], rows), cfg.output_path)
    return 0


def _run_nevanlinna(cfg: RunConfig) -> int:
    data = _load_json(cfg.input_path)
    kind = data.get("kind", "1d")
    if kind == "1d":
        try:
            mu = DiscreteMeasure.from_dict(data["measure"])
            n_trunc = int(data["N"])
            ys = [float(y) for y in data["y"]]
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad nevanlinna config: {exc}") from exc
        if n_trunc < 0 or not ys:
            raise ConfigError("bad nevanlinna config: need N >= 0 and a nonempty y")
        if not all(0.0 < y < np.inf for y in ys):
            raise ConfigError(f"bad nevanlinna config: y values must be positive and finite, got {ys}")
        res = nevanlinna_limit_check(mu, n_trunc, ys)
        _emit(toda_1d._csv_text(["y", "residual"], np.column_stack([ys, res])), cfg.output_path)
    elif kind == "multi":
        mu = _measure_from_dict(data.get("measure", {}))
        try:
            idx = (int(data["k"]), int(data["ell"]))
            n_trunc = int(data["N"])
            mods = [float(m) for m in data["zeta_abs"]]
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad nevanlinna config: {exc}") from exc
        if n_trunc < 0 or not mods:
            raise ConfigError("bad nevanlinna config: need N >= 0 and a nonempty zeta_abs")
        if not all(0.0 < m < np.inf for m in mods):
            raise ConfigError(f"bad nevanlinna config: zeta_abs must be positive and finite, got {mods}")
        if idx not in mu.family.keys:
            raise ConfigError(f"bad nevanlinna config: the measure has no component (k, ell) = {idx}")
        zetas = [m * np.exp(1j * np.pi / 4) for m in mods]
        res = kdq.multi_nevanlinna_check(mu, idx, n_trunc, zetas)
        _emit(toda_1d._csv_text(["zeta_abs", "residual"], np.column_stack([mods, res])), cfg.output_path)
    else:
        raise ConfigError(f"unknown nevanlinna kind {kind!r}")
    decreasing = bool(np.all(np.diff(res) < 0.0))
    below = cfg.tol is None or res[-1] <= cfg.tol
    return 0 if decreasing and below else 3


def _run_iso_flow(cfg: RunConfig) -> int:
    data = _load_json(cfg.input_path)
    mu = _measure_from_dict(data.get("measure", {}))
    t_grid = data.get("t_grid")
    if t_grid is None:
        t_grid = _sample_times(cfg)
    try:
        state = iso_flow.state_from_measure(mu)  # every component needs an atom
        times = [float(t) for t in t_grid]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad iso-flow config: {exc}") from exc
    try:
        rep = iso_flow.monotonicity_check(state, times, tol=cfg.tol if cfg.tol is not None else 1e-12)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    keys = sorted(rep.values)
    header = ["t"] + [f"S_k{k}_l{ell}" for k, ell in keys]
    table = np.column_stack([rep.times] + [rep.values[key] for key in keys])
    _emit(toda_1d._csv_text(header, table), cfg.output_path)
    summary = (
        f"monotone={rep.passed} max_increase={rep.max_increase!r} "
        f"max_derivative_residual={rep.max_derivative_residual!r}\n"
    )
    sys.stdout.write(summary)
    return 0 if rep.passed else 3


def _run_verify_all(cfg: RunConfig) -> int:
    results = run_all()
    table = format_table(results)
    sys.stdout.write(table)
    if cfg.output_path is not None:
        _emit(table, cfg.output_path)
    return 0 if all(r.passed for r in results) else 3


_RUNNERS = {
    "simulate-1d": _run_simulate_1d,
    "spectral-solve": _run_spectral_solve,
    "simulate-pseudo": _run_simulate_pseudo,
    "transform-eval": _run_transform_eval,
    "nevanlinna-check": _run_nevanlinna,
    "iso-flow": _run_iso_flow,
    "verify-all": _run_verify_all,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        cfg.validate()
        return _RUNNERS[cfg.command](cfg)
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toda-kdq", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", dest="input_path", default=None)
    parser.add_argument("--output", dest="output_path", default=None)
    parser.add_argument("--t-final", dest="t_final", type=float, default=5.0)
    parser.add_argument("--dt", dest="dt", type=float, default=1e-3)
    parser.add_argument("--kmax", dest="k_max", type=int, default=kdq.DEFAULT_KMAX)
    parser.add_argument("--tol", dest="tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = RunConfig(**vars(args))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
