"""Workload inputs, the `toda-kdq` commands run on them, and output checks.

Each check is computed apart from `toda_kdq` (numpy, `scipy.special`) or is
a property the method must have; no check compares with a stored output.
A check returns ``(rows, deviations)`` where every deviation is a
``(name, observed, tolerance)`` triple that passes when observed <= tolerance,
or raises `CheckFailed` when the output is missing or malformed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import sph_harm_y

WORKLOADS = ("lattice", "quadric", "verify-all")

# lattice
T_FINAL = 1.0
DT_RK4 = 1e-3
DT_SPECTRAL = 1e-2
# Random states stop where every seed passes: at N = 64 the CSV's per-row
# eigen-solve returns an exact zero corner mass for about 1 seed in 75, and
# SpectralData raises; spectral-solve fails the 1e-8 check at N = 32 on
# about 1 seed in 75 (see README).
SIM_SIZES = (2, 4, 8, 16, 32)
SPECTRAL_SIZES = (2, 4, 8)
# seed-independent N = 64 state on which spectral-solve deviates from RK4 by
# 6.5e-4 to 1.0e-3 at t <= 1; kept as the one failing op
FAULT_STATE_SEED = 5
FAULT_N = 64
SPECTRAL_TOL = 1e-8

# quadric
TRANSFORM_KMAX = 24
TRANSFORM_ZETAS = {2: 32, 3: 8}
# The projected residual cancels the sums of every component on the nodes;
# a target with tiny moments, or |zeta| >= 16, sinks it into rounding (see
# README), so the target has k <= 2 and atoms in [0.5, 0.95].
NEVANLINNA_KMAX = 6
NEVANLINNA_TARGET_KMAX = 2
NEVANLINNA_ZETA_ABS = (2.0, 3.0, 4.0, 6.0, 8.0)
PSEUDO_KMAX = 4  # 25 components on S^2
PSEUDO_ATOMS = 6
PSEUDO_T_FINAL, PSEUDO_DT = 10.0, 0.1
ISO_KMAX = 4
ISO_T_GRID = tuple(float(t) for t in np.linspace(0.0, 10.0, 41))


class CheckFailed(Exception):
    """The output is missing, malformed or violates a structural property."""


@dataclass
class Op:
    """One `toda-kdq` invocation with the check of its output.

    `output` is the file the command writes (None: the check reads stdout).
    A non-empty `known_fault` names the program fault that makes this op
    fail its checks on every run; such an op counts as failed, not wrong.
    """

    name: str
    argv: list
    output: Path | None
    check: Callable
    known_fault: str = ""


def _dev(x) -> float:
    # largest absolute entry; NaN reads as an infinite deviation
    x = np.abs(np.asarray(x, dtype=float))
    if x.size == 0:
        return 0.0
    m = float(np.max(x))
    return math.inf if math.isnan(m) else m


def _exit_ok(rc):
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")


def parse_csv(text: str, header: list, n_rows: int) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("empty output")
    if lines[0].split(",") != header:
        raise CheckFailed(f"unexpected header {lines[0][:80]!r}")
    if len(lines) - 1 != n_rows:
        raise CheckFailed(f"{len(lines) - 1} data rows, expected {n_rows}")
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"unparsable value: {exc}") from exc
    if data.shape != (n_rows, len(header)):
        raise CheckFailed(f"table shape {data.shape}, expected {(n_rows, len(header))}")
    return data


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# ---------------------------------------------------------------- lattice


def _lattice_header(n: int) -> list:
    return (
        ["t"]
        + [f"a_{j}" for j in range(1, n)]
        + [f"b_{j}" for j in range(1, n + 1)]
        + ["H"]
        + [f"lambda_{j}" for j in range(1, n + 1)]
    )


def _random_state(rng, n: int) -> dict:
    return {"a": rng.uniform(0.3, 1.0, size=n - 1).tolist(), "b": rng.uniform(-1.0, 1.0, size=n).tolist()}


class LatticeState:
    """A Flaschka state with the checks of its RK4 and spectral trajectories."""

    def __init__(self, label: str, state: dict, closed_form: bool = False):
        self.label = label
        self.a0 = np.asarray(state["a"], float)
        self.b0 = np.asarray(state["b"], float)
        self.n = self.b0.size
        dense = np.diag(self.b0) + np.diag(self.a0, 1) + np.diag(self.a0, -1)
        self.lam0 = np.linalg.eigvalsh(dense)
        self.closed_form = closed_form
        self.rk4 = None  # parsed RK4 table of the current round

    def _common(self, text: str, dt: float):
        n = self.n
        rows = int(round(T_FINAL / dt)) + 1
        d = parse_csv(text, _lattice_header(n), rows)
        t, a, b = d[:, 0], d[:, 1:n], d[:, n : 2 * n]
        h, lam = d[:, 2 * n], d[:, 2 * n + 1 :]
        if not np.all(a > 0.0):
            raise CheckFailed("a coupling left the positive cone")
        h_formula = 4.0 * (np.sum(a**2, axis=1) + 0.5 * np.sum(b**2, axis=1))
        devs = [
            ("lattice.time-grid", _dev(t - dt * np.arange(rows)), 1e-12),
            ("lattice.eigenvalues-vs-eigvalsh", _dev(lam - self.lam0), 1e-8),
            ("lattice.trace-conserved", _dev(np.sum(b, axis=1) - np.sum(self.lam0)), 1e-10),
            ("lattice.H-column-formula", _dev((h - h_formula) / h_formula), 1e-12),
            ("lattice.H-constant", _dev(h - h[0]), 1e-8),
        ]
        if self.closed_form:
            devs.append(
                (
                    "lattice.closed-form-n2",
                    max(
                        _dev(a[:, 0] - 0.5 / np.cosh(t)),
                        _dev(b[:, 0] - 0.5 * np.tanh(t)),
                        _dev(b[:, 1] + 0.5 * np.tanh(t)),
                    ),
                    1e-9,
                )
            )
        return rows, a, b, devs

    def check_rk4(self, text: str, stdout: str, rc: int):
        self.rk4 = None
        _exit_ok(rc)
        rows, a, b, devs = self._common(text, DT_RK4)
        devs.append(("lattice.initial-state", max(_dev(a[0] - self.a0), _dev(b[0] - self.b0)), 0.0))
        self.rk4 = (a, b)
        return rows - 1, devs

    def check_spectral(self, text: str, stdout: str, rc: int):
        _exit_ok(rc)
        if self.rk4 is None:
            raise CheckFailed("no checked RK4 trajectory to compare with")
        rows, a, b, devs = self._common(text, DT_SPECTRAL)
        stride = int(round(DT_SPECTRAL / DT_RK4))
        ra, rb = self.rk4[0][::stride], self.rk4[1][::stride]
        devs.append(("lattice.spectral-vs-rk4", max(_dev(a - ra), _dev(b - rb)), SPECTRAL_TOL))
        return rows - 1, devs


def build_lattice(rng, workdir: Path) -> list:
    states = [LatticeState(f"N{n}", _random_state(rng, n)) for n in SIM_SIZES]
    states.append(LatticeState("fault-N64", _random_state(np.random.default_rng(FAULT_STATE_SEED), FAULT_N)))
    states.append(LatticeState("closed-N2", {"a": [0.5], "b": [0.0, 0.0]}, closed_form=True))
    ops = []
    for st in states:
        inp = _write_json(workdir / f"lattice-{st.label}.json", {"a": st.a0.tolist(), "b": st.b0.tolist()})
        jobs = [("simulate-1d", DT_RK4, st.check_rk4)]
        if st.n in SPECTRAL_SIZES or st.label.startswith(("fault", "closed")):
            jobs.append(("spectral-solve", DT_SPECTRAL, st.check_spectral))
        for cmd, dt, check in jobs:
            out = workdir / f"lattice-{st.label}-{cmd}.csv"
            argv = [cmd, "--input", str(inp), "--output", str(out), "--t-final", repr(T_FINAL), "--dt", repr(dt)]
            fault = ""
            if cmd == "spectral-solve" and st.label.startswith("fault"):
                fault = "spectral_solve rebuilds L(t) from the tiny corner masses of a disordered N = 64 lattice"
            ops.append(Op(f"{cmd}:{st.label}", argv, out, check, fault))
    return ops


# ---------------------------------------------------------------- quadric


def _dim(n: int, k: int) -> int:
    return 1 if k == 0 else (2 if n == 2 else 2 * k + 1)


def _indices(n: int, k_max: int) -> list:
    return [(k, ell) for k in range(k_max + 1) for ell in range(1, _dim(n, k) + 1)]


def real_harmonics(n: int, k_max: int, theta) -> np.ndarray:
    """Y_{k,ell}(theta) in ascending (k, ell) order, orthonormal under the
    probability measure; S^2 values come from `scipy.special.sph_harm_y`,
    S^1 values from cos and sin."""
    th = np.asarray(theta, float)
    az = math.atan2(th[1], th[0])
    out = []
    for k, ell in _indices(n, k_max):
        if n == 2:
            out.append(1.0 if k == 0 else math.sqrt(2.0) * (math.cos(k * az) if ell == 1 else math.sin(k * az)))
            continue
        m = ell - k - 1
        y = math.sqrt(4.0 * math.pi) * complex(sph_harm_y(k, abs(m), math.acos(max(-1.0, min(1.0, th[2]))), az))
        out.append(y.real if m == 0 else math.sqrt(2.0) * (y.real if m > 0 else y.imag))
    return np.asarray(out)


def _radial_measure(rng, n: int, k_max: int, atoms: int, lo: float, hi: float) -> dict:
    comps = []
    for k, ell in _indices(n, k_max):
        comps.append(
            {
                "k": k,
                "ell": ell,
                "atoms": np.sort(rng.uniform(lo, hi, size=atoms)).tolist(),
                "weights": rng.uniform(0.1, 1.0, size=atoms).tolist(),
            }
        )
    return {"n": n, "k_max": k_max, "components": comps}


def _component_transforms(measure: dict, z2: complex) -> np.ndarray:
    # T_{k,l}(zeta^2) = sum_j w_j r_j^k / (zeta^2 - r_j^2), ascending (k, l)
    out = []
    for c in measure["components"]:
        r, w = np.asarray(c["atoms"]), np.asarray(c["weights"])
        out.append(np.sum(w * r ** c["k"] / (z2 - r**2)))
    return np.asarray(out)


def _unit(rng, n: int) -> list:
    v = rng.normal(size=n)
    return (v / np.linalg.norm(v)).tolist()


def _check_transform(measure: dict, theta, zetas):
    n = measure["n"]
    ks = np.asarray([c["k"] for c in measure["components"]])
    y = real_harmonics(n, measure["k_max"], theta)
    ref, scale = [], []
    for re, im in zetas:
        z = complex(re, im)
        terms = z ** (1 - ks) * y * _component_transforms(measure, z * z)
        ref.append(np.sum(terms))
        scale.append(np.sum(np.abs(terms)))
    ref, scale = np.asarray(ref), np.asarray(scale)
    zetas = np.asarray(zetas)

    def check(text, stdout, rc):
        _exit_ok(rc)
        d = parse_csv(text, ["zeta_re", "zeta_im", "value_re", "value_im"], len(zetas))
        value = d[:, 2] + 1j * d[:, 3]
        return len(d), [
            ("quadric.transform-points", _dev(d[:, :2] - zetas), 0.0),
            ("quadric.transform-vs-harmonic-sum", _dev(np.abs(value - ref) / scale), 1e-12),
        ]

    return check


def _check_nevanlinna(measure: dict, idx, n_trunc: int, mods):
    comp = next(c for c in measure["components"] if (c["k"], c["ell"]) == tuple(idx))
    r, w, k = np.asarray(comp["atoms"]), np.asarray(comp["weights"]), comp["k"]
    s = [float(np.sum(w * r ** (k + 2 * j))) for j in range(2 * n_trunc + 1)]
    ref = []
    for m in mods:
        z = m * np.exp(1j * np.pi / 4)
        t_val = np.sum(w * r**k / (z * z - r**2))
        bracket = t_val - sum(s[j] * z ** (-2 * j - 2) for j in range(2 * n_trunc))
        ref.append(abs(z ** (4 * n_trunc + 2) * bracket - s[2 * n_trunc]))
    ref = np.asarray(ref)

    def check(text, stdout, rc):
        _exit_ok(rc)
        d = parse_csv(text, ["zeta_abs", "residual"], len(mods))
        res = d[:, 1]
        if not np.all(np.diff(res) < 0.0):
            raise CheckFailed("residuals do not decrease along the ray")
        return len(d), [
            ("quadric.nevanlinna-points", _dev(d[:, 0] - np.asarray(mods)), 0.0),
            ("quadric.nevanlinna-vs-closed-form", _dev((res - ref) / ref), 1e-5),
        ]

    return check


def _check_pseudo(state: dict, times: np.ndarray):
    comps = state["components"]
    n_atoms = state["N"]
    header = ["t", "H_total"] + [
        f"rt2_k{c['k']}_l{c['ell']}_j{j}" for c in comps for j in range(1, n_atoms + 1)
    ]
    lam = np.asarray([c["lambdas"] for c in comps])  # (components, atoms)
    m0 = np.asarray([c["masses_tilde"] for c in comps])
    h_total = float(np.sum(2.0 * lam**4))
    w = m0[None] * np.exp(-2.0 * lam[None] ** 2 * times[:, None, None])
    masses = (w / w.sum(axis=2, keepdims=True)).reshape(times.size, -1)

    def check(text, stdout, rc):
        _exit_ok(rc)
        d = parse_csv(text, header, times.size)
        got = d[:, 2:]
        return len(d), [
            ("quadric.pseudo-time-grid", _dev(d[:, 0] - times), 1e-12),
            ("quadric.pseudo-H-total", _dev((d[:, 1] - h_total) / h_total), 1e-13),
            ("quadric.pseudo-reweighting", _dev(got - masses), 1e-13),
            ("quadric.pseudo-unit-mass", _dev(got.reshape(times.size, len(comps), n_atoms).sum(axis=2) - 1.0), 1e-13),
        ]

    return check


def _check_iso(measure: dict, t_grid):
    comps = sorted(measure["components"], key=lambda c: (c["k"], c["ell"]))
    header = ["t"] + [f"S_k{c['k']}_l{c['ell']}" for c in comps]
    t = np.asarray(t_grid)
    ref = []
    for c in comps:
        lam, r0 = np.asarray(c["atoms"]), np.sqrt(np.asarray(c["weights"]))
        r_t = r0[None] / (1.0 + lam[None] * r0[None] * t[:, None])
        ref.append(np.sum(r_t**2 / lam[None] ** c["k"], axis=1))
    ref = np.asarray(ref).T

    def check(text, stdout, rc):
        _exit_ok(rc)
        if not stdout.startswith("monotone=True "):
            raise CheckFailed(f"summary line {stdout[:60]!r}")
        d = parse_csv(text, header, t.size)
        vals = d[:, 1:]
        if not np.all(np.diff(vals, axis=0) <= 0.0):
            raise CheckFailed("a functional increases along the flow")
        return len(d), [
            ("quadric.iso-time-grid", _dev(d[:, 0] - t), 0.0),
            ("quadric.iso-vs-riccati-closed-form", _dev((vals - ref) / ref), 1e-12),
        ]

    return check


def build_quadric(rng, workdir: Path) -> list:
    ops = []

    def add(name, cmd, obj, check, extra=()):
        inp = _write_json(workdir / f"quadric-{name}.json", obj)
        out = workdir / f"quadric-{name}.csv"
        ops.append(Op(f"{cmd}:{name}", [cmd, "--input", str(inp), "--output", str(out), *extra], out, check))

    for n in (2, 3):
        measure = _radial_measure(rng, n, TRANSFORM_KMAX, 3, 0.05, 0.95)
        theta = _unit(rng, n)
        count = TRANSFORM_ZETAS[n]
        mods, args = rng.uniform(1.2, 2.5, size=count), rng.uniform(-1.0, 1.0, size=count)
        zetas = [[float(m * math.cos(a)), float(m * math.sin(a))] for m, a in zip(mods, args)]
        obj = {"measure": measure, "theta": theta, "zetas": zetas}
        add(f"n{n}", "transform-eval", obj, _check_transform(measure, theta, zetas), ["--kmax", str(TRANSFORM_KMAX)])

    measure = _radial_measure(rng, 3, NEVANLINNA_KMAX, 3, 0.5, 0.95)
    targets = _indices(3, NEVANLINNA_TARGET_KMAX)
    idx = targets[int(rng.integers(len(targets)))]
    obj = {"kind": "multi", "measure": measure, "k": idx[0], "ell": idx[1], "N": 1, "zeta_abs": list(NEVANLINNA_ZETA_ABS)}
    add("multi", "nevanlinna-check", obj, _check_nevanlinna(measure, idx, 1, NEVANLINNA_ZETA_ABS))

    comps = []
    for k, ell in _indices(3, PSEUDO_KMAX):
        m = rng.uniform(0.1, 1.0, size=PSEUDO_ATOMS)
        comps.append(
            {
                "k": k,
                "ell": ell,
                "lambdas": np.sort(rng.uniform(0.2, 1.5, size=PSEUDO_ATOMS)).tolist(),
                "masses_tilde": (m / m.sum()).tolist(),
            }
        )
    state = {"n": 3, "N": PSEUDO_ATOMS, "components": comps, "t": 0.0}
    times = PSEUDO_DT * np.arange(int(round(PSEUDO_T_FINAL / PSEUDO_DT)) + 1)
    extra = ["--t-final", repr(PSEUDO_T_FINAL), "--dt", repr(PSEUDO_DT)]
    add("pseudo", "simulate-pseudo", state, _check_pseudo(state, times), extra)

    measure = _radial_measure(rng, 3, ISO_KMAX, 3, 0.3, 2.0)
    add("iso", "iso-flow", {"measure": measure, "t_grid": list(ISO_T_GRID)}, _check_iso(measure, ISO_T_GRID))
    return ops


# ---------------------------------------------------------------- verify-all


def _check_verify_all():
    first = []  # the run's first table; every later op must reproduce it

    def check(text, stdout, rc):
        _exit_ok(rc)
        lines = stdout.splitlines()
        if not lines:
            raise CheckFailed("empty table")
        *checks, summary = lines
        parts = summary.split()
        if len(parts) != 3 or parts[1:] != ["checks", "passed"]:
            raise CheckFailed(f"bad summary line {summary!r}")
        try:
            n_pass, n_all = (int(v) for v in parts[0].split("/"))
        except ValueError as exc:
            raise CheckFailed(f"bad summary line {summary!r}") from exc
        if not checks or n_pass != n_all or n_all != len(checks):
            raise CheckFailed(f"summary {summary!r} over {len(checks)} check lines")
        worst = 0.0  # largest observed/tolerance over the PASS lines
        for line in checks:
            fields = line.split()
            if len(fields) != 4 or fields[0] != "PASS" or not fields[2].startswith("observed="):
                raise CheckFailed(f"check line {line!r}")
            try:
                observed = float(fields[2].removeprefix("observed="))
                tol = float(fields[3].removeprefix("tol="))
            except ValueError as exc:
                raise CheckFailed(f"check line {line!r}") from exc
            if not observed <= tol:
                raise CheckFailed(f"PASS line with observed > tol: {line!r}")
            worst = max(worst, observed / tol if observed > 0.0 else 0.0)
        if not first:
            first.append(stdout)
        return len(checks), [
            ("verify.observed-over-tol", worst, 1.0),
            ("verify.table-differs-from-first", 0.0 if stdout == first[0] else 1.0, 0.0),
        ]

    return check


def build_verify_all(rng, workdir: Path) -> list:
    return [Op("verify-all", ["verify-all"], None, _check_verify_all())]


_OPS_FOR = {"lattice": build_lattice, "quadric": build_quadric, "verify-all": build_verify_all}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs under `workdir`; return one round of ops."""
    return _OPS_FOR[workload](np.random.default_rng(seed), workdir)
