"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Commands
--------
simulate-1d     RK4 trajectory of a Flaschka state; CSV t, a_*, b_*, H, lambda_*.
                input: {"a": [...], "b": [...]}
spectral-solve  Same sampling computed through the exact (QR) solution.
simulate-pseudo Tilde-mass trajectories and total Hamiltonian of a state
                {"n":, "components": [<lambdas, masses_tilde>], "t": 0}.
transform-eval  Transform values of a measure at given points:
                {"measure": <measure>, "theta": [...], "zetas": [[re, im], ...]}.
nevanlinna-check  Residual table; {"kind": "1d", "measure": {"atoms": [...],
                "weights": [...], "half_line": false}, "N":, "y": [...]} or
                {"kind": "multi", "measure": <measure>, "k":, "ell":, "N":,
                "zeta_abs": [...]} (ray arg zeta^2 = pi/2), each residual the
                exact moment remainder; exit 3, naming the point, unless they
                decrease.
iso-flow        Functionals S_{k,l} of the Riccati flow on a time grid, then
                one line with their largest rise (0.0: the flow caps each
                mass) and derivative residual; {"measure": <measure>,
                "t_grid": [...]}; exit 3, naming the component, where S or
                dS/dt overflows or the complex step is not small.
verify-all      Run the bundled invariant suite; prints one PASS/FAIL line
                per check.

<measure> is {"n":, "k_max":, "components": [<atoms, weights>]}, and [<x, y>]
a list of {"k":, "ell":, x: [...], y: [...]}, one per component (a repeated
index keeps its last entry).  t, half_line and k_max (where >= 0, a bound
on every degree) may be left out; --kmax (24) cuts transform-eval's series.
This module alone reads the JSON format and holds every default, and
ignores fields not named here; the numeric layers take maps (k, ell) ->
(radii, masses), packed families and arrays.  Float fields hold JSON
numbers only.  A list field takes a bare number as one entry and refuses a
list of lists; zetas is a list of [re, im] pairs.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (positivity
loss, divergence region, pole, overflow, an eigensolver that does not
converge, or a failed check).  Outputs are byte-identical
across runs for identical inputs: fixed seeds, fixed summation order, floats
rendered with shortest round-trip repr.
"""

import argparse
import itertools
import json
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

# moment_1d (the 1-d types) and toda_1d (the CSV writer) run at import; the
# other layers stay unloaded until a runner reaches into them
from . import iso_flow, kdq, pseudo_toda, sphere, verify
from .errors import (
    DivergenceRegionError,
    PoleError,
    PositivityLossError,
    RankDeficiencyError,
)
from .moment_1d import DiscreteMeasure, JacobiMatrix, _as_vector, nevanlinna_limit_check
from .toda_1d import _csv_text, integrate_toda, spectral_solve, trajectory_to_csv

__all__ = ["main"]

# the commands whose CSV has one row per time 0, dt, ..., round(t_final/dt) dt
_TIMED = ("simulate-1d", "spectral-solve", "simulate-pseudo")
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
    if args.k_max < 0:
        raise ConfigError("kmax must be nonnegative")
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


@contextmanager
def _entry_named(prefix):
    """A DivergenceRegionError or OverflowError of the block that names an
    entry by its `index` (`kdq._check_outside_support`) is raised again with
    `prefix(index)` before its message."""
    try:
        yield
    except (DivergenceRegionError, OverflowError) as exc:
        if not hasattr(exc, "index"):
            raise
        raise type(exc)(f"{prefix(exc.index)}{exc}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(data).__name__}")
    return data


def _json_field(d: dict, name: str, *default):
    """d[name], or `default` where given and absent; ValueError naming the field if absent without one."""
    if name in d or default:
        return d.get(name, *default)
    raise ValueError(f"missing field {name!r}")


def _json_int(d: dict, name: str, *default) -> int:
    """`_json_field` as an int.

    TypeError unless the value is an integer: a JSON number with a fraction
    or an exponent (1.7, 1e999, which reads as inf) and a boolean are not
    truncated but rejected.
    """
    value = d[name] if name in d else _json_field(d, name, *default)  # no call per field read
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


# the types json gives numbers; type(True) is bool, which is not among them
_JSON_NUMBERS = {int, float}


def _json_float(d: dict, name: str, *default):
    """`_json_field` as a float array: 0-d for a number, 1-d or more for a
    list (of lists).

    TypeError unless every entry is a JSON number: a boolean, a string such
    as "2.5" and null are not converted but rejected, and the first in
    reading order is named by its index, such as zetas[1][0].  ValueError
    if the lists are ragged or an integer is too large for a double.
    """
    value = d[name] if name in d else _json_field(d, name, *default)  # no call per field read
    # one level of the lists at a time, in a loop rather than by recursion
    entries = value if type(value) is list else [value]
    while not _JSON_NUMBERS.issuperset(map(type, entries)):
        if not all(type(entry) in (int, float, list) for entry in entries):
            raise TypeError(f"{name} must hold JSON numbers only, got {_first_non_number(name, value)}")
        entries = [v for entry in entries if type(entry) is list for v in entry]
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{name} holds an integer too large for a double") from exc


def _first_non_number(name: str, value) -> str:
    # "name[i][j] = entry" of the first entry of the lists `value` that is
    # neither a number nor a list, in reading order; the bare entry's repr
    # where `value` is no list
    stack = [(name, value)]
    while stack:
        path, entry = stack.pop()
        if type(entry) is list:
            stack += [(f"{path}[{i}]", v) for i, v in reversed(list(enumerate(entry)))]
        elif type(entry) not in _JSON_NUMBERS:
            return f"{path} = {entry!r}" if path != name else repr(entry)


def _read_1d_measure(d: dict) -> DiscreteMeasure:
    """TypeError unless `d` is a JSON object and `half_line`, where given, a JSON boolean."""
    if type(d) is not dict:
        raise TypeError(f"measure must be a JSON object, got {d!r}")
    half_line = d.get("half_line", False)
    if type(half_line) is not bool:
        raise TypeError(f"half_line must be true or false, got {half_line!r}")
    return DiscreteMeasure(atoms=_json_float(d, "atoms"), weights=_json_float(d, "weights"), half_line=half_line)


def _read_measure(d: dict):
    """A `kdq.PseudoPositiveMeasure`; TypeError unless `d` is a JSON object,
    and ValueError naming the first component of a degree above a k_max >= 0."""
    if type(d) is not dict:
        raise TypeError(f"measure must be a JSON object, got {d!r}")
    comps = _read_components(d, kdq._FIELDS)
    n, k_max = _json_int(d, "n"), _json_int(d, "k_max", -1)
    mu = kdq.PseudoPositiveMeasure(n, comps)
    keys = mu.family.keys
    if keys and keys[-1][0] > k_max >= 0:
        raise ValueError(f"degree exceeds k_max = {k_max} in component {next(key for key in keys if key[0] > k_max)}")
    return mu


def _read_pseudo_state(d: dict):
    """A `pseudo_toda.PseudoTodaState`."""
    comps = _read_components(d, pseudo_toda._FIELDS, 1)
    n, t = _json_int(d, "n"), _json_float(d, "t", 0.0)
    if t.ndim:
        raise TypeError(f"t must be one JSON number, got shape {t.shape}")
    return pseudo_toda.PseudoTodaState(n, comps, float(t))


def _read_components(d: dict, names: tuple, min_size: int = 0):
    """The JSON list d["components"] of {"k", "ell", *names} objects, packed
    in one pass as `ComponentFamily.pack` packs a map (a repeated index keeps
    its last entry); TypeError naming `components` or `components[i]` if it
    is not a list or not an object, and an error naming `components[i]` and
    the field it lacks or holds wrong."""
    comps = _json_field(d, "components")
    if type(comps) is not list:
        raise TypeError(f"components must be a JSON list, got {comps!r}")
    fields = ("k", "ell", *names)
    entries = []
    for i, c in enumerate(comps):
        if type(c) is not dict:
            raise TypeError(f"components[{i}] must be a JSON object, got {c!r}")
        entry = tuple(map(c.get, fields))
        if type(entry[0]) is not int or type(entry[1]) is not int or type(entry[2]) is not list or type(entry[3]) is not list:
            entry = _read_entry(i, c, names)
        entries.append(entry)
    keys, sizes, flat = _columns(entries)
    try:
        if not all(_JSON_NUMBERS.issuperset(map(type, values)) for values in flat):
            raise TypeError("a list holds more than JSON numbers")
        arrays = [np.array(values, dtype=float) for values in flat]
    except (TypeError, OverflowError):
        # a value that is not a number, a list of lists, or an integer too
        # large for a double: read entry by entry, which names the entry at
        # fault (or reads a nested empty list as no atoms)
        keys, sizes, flat = _columns([_read_entry(i, c, names) for i, c in enumerate(comps)])
        arrays = [np.array(values, dtype=float) for values in flat]
    return kdq.ComponentFamily.from_columns(keys, sizes, arrays, names, min_size)


def _columns(entries: list) -> tuple:
    # (k, ell, radii list, masses list) per entry -> the keys, the two lists
    # of sizes and the two flat lists of values
    k, ell, radii, masses = zip(*entries) if entries else ((),) * 4
    sizes = [list(map(len, radii)), list(map(len, masses))]
    return list(zip(k, ell)), sizes, [list(itertools.chain.from_iterable(radii)), list(itertools.chain.from_iterable(masses))]


def _read_entry(i: int, c: dict, names: tuple) -> tuple:
    # components[i] read field by field, (k, ell, radii list, masses list), or
    # the error that names it and the field it lacks or holds wrong
    try:
        return (_json_int(c, "k"), _json_int(c, "ell"), *(_as_vector(name, _json_float(c, name)).tolist() for name in names))
    except (TypeError, ValueError) as exc:
        missing = [name for name in ("k", "ell", *names) if name not in c]
        detail = f" has no field {missing[0]!r}" if missing else f": {exc}"
        raise type(exc)(f"components[{i}]{detail}") from None


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
        state = _read_pseudo_state(data)
        state.common_size()  # the CSV needs one atom count shared by all components
    times = _sample_times(args, state.family.radii.size)
    _emit(pseudo_toda.state_trajectory_csv(state, times), args.output_path)
    return 0


def _measure_from_config(data: dict, reader=_read_measure):
    with _stage("bad measure: "):
        return reader(_json_field(data, "measure"))


def _run_transform_eval(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    # --kmax truncates the component series
    mu = _measure_from_config(data).truncated(args.k_max)
    with _stage("bad transform-eval config: "):
        theta = sphere.as_direction(mu.n, _json_float(data, "theta"))
        pairs = _json_float(data, "zetas")
        if pairs.shape != (0,) and pairs.shape[1:] != (2,):
            raise ValueError(f"zetas must be a list of [re, im] pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        bad = ~np.isfinite(pairs).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"zetas entries must be finite, got zetas[{i}] = {pairs[i].tolist()}")
    with _entry_named(lambda i: f"at zetas[{i}]: "):
        vals = kdq.markov_stieltjes(mu, pairs.view(complex)[:, 0], theta)
    table = np.column_stack([pairs, vals.real, vals.imag])
    _emit(_csv_text(["zeta_re", "zeta_im", "value_re", "value_im"], table), args.output_path)
    return 0


def _run_nevanlinna(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    kind = data.get("kind", "1d")
    if kind not in ("1d", "multi"):
        raise ConfigError(f"unknown nevanlinna kind {kind!r}")
    grid, values = ("y", "y values") if kind == "1d" else ("zeta_abs", "zeta_abs")
    mu = _measure_from_config(data, _read_1d_measure if kind == "1d" else _read_measure)
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
        zetas = [complex(v * np.exp(1j * np.pi / 4)) for v in points]
        # a refused point is named by its grid value and the component, not the ray point
        with _entry_named(lambda i: f"at zeta_abs = {points[i]!r} for component {idx}: "):
            res = kdq.multi_nevanlinna_check(mu, idx, n_trunc, zetas)
    _emit(_csv_text([grid, "residual"], np.column_stack([points, res])), args.output_path)
    res = res.tolist()
    rise = next((i for i in range(1, len(res)) if not res[i] < res[i - 1]), None)
    if rise is None:
        return 0
    sys.stderr.write(
        f"numeric failure: at {grid} = {points[rise]!r} the residual {res[rise]!r} does not decrease from {res[rise - 1]!r}\n"
    )
    return 3


def _run_iso_flow(args: argparse.Namespace) -> int:
    data = _load_json(args.input_path)
    mu = _measure_from_config(data)
    with _stage("bad iso-flow config: "):
        # the library takes t = inf as the flow's limit, which a CSV of finite numbers has no row for
        t_grid = _as_vector("t_grid", _json_float(data, "t_grid"))
        finite = np.isfinite(t_grid)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"t_grid entries must be finite, got t_grid[{i}] = {float(t_grid[i])!r}")
        rep = iso_flow.monotonicity_check(mu, t_grid)
    header = ["t"] + [f"S_k{k}_l{ell}" for k, ell in mu.family.keys]
    _emit(_csv_text(header, np.column_stack([rep.times, rep.values])), args.output_path)
    sys.stdout.write(
        f"monotone={rep.max_increase == 0.0} max_increase={rep.max_increase!r} "
        f"max_derivative_residual={rep.max_derivative_residual!r}\n"
    )
    return 0


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
    parser.add_argument("--kmax", dest="k_max", type=int, default=24)  # transform-eval's truncation degree
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
