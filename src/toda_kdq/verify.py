"""Invariant checks shared by the `verify-all` CLI command and the acceptance battery.

Each check takes its seed and sizes, where it has any, as keywords and
returns a list of `CheckResult`s, each formed by `_result` from the samples
its line was measured on: `observed` is the largest |sample|, and a line
with no sample or a NaN one reads observed=nan and fails.  `CHECKS` lists
every check in table order with two sets of keywords: small sizes for
`run_all`, which finish in seconds, and larger ones for
`tests/test_acceptance.py`.  Every check uses fixed seeds and a fixed
summation order, so two runs print byte-identical tables.
"""

from dataclasses import dataclass

import numpy as np

from . import iso_flow, kdq, pseudo_toda, sphere, toda_1d
from .moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    continued_fraction_eval,
    jacobi_eigenvalues,
    jacobi_from_measure,
    nevanlinna_limit_check,
    resolvent_NN,
    spectral_data_from_jacobi,
    stieltjes_transform,
)

__all__ = ["CheckResult", "run_all", "format_table"]

_SEED = 20240811
# check_toda: RK4 step of the ensemble, spectrum sampled at every _STRIDE-th
# step, and the times at which spectral_solve meets the N = 2 closed form
_ENSEMBLE_DT = 1e-3
_STRIDE = 10
_CLOSED_FORM_TIMES = np.linspace(0.0, 5.0, 26)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} observed={self.observed!r} tol={self.tolerance!r}"


def _result(name: str, samples, tol: float, holds: bool = True) -> CheckResult:
    """The line `name` over `samples`, a list of arrays and numbers: observed
    is the largest |sample|, NaN where there is none or one is NaN."""
    flat = np.concatenate([np.empty(0)] + [np.ravel(s) for s in samples])
    # np.hypot is Python's abs, which np.abs of a complex is not
    observed = float(np.max(np.hypot(flat.real, flat.imag))) if flat.size else float("nan")
    return CheckResult(name, bool(holds) and observed <= tol, observed, tol)


def _nonempty(name: str, value) -> None:
    """ValueError naming `name` where the count or sequence `value` leaves a
    check no samples, so that it cannot pass on nothing."""
    if isinstance(value, int) and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if not isinstance(value, int) and not len(value):
        raise ValueError(f"{name} must not be empty")


def _spread_uniform(rng, low: float, high: float, size: int, min_gap: float) -> np.ndarray:
    # sorted draws, redrawn until neighbours sit at least min_gap apart
    while True:
        x = np.sort(rng.uniform(low, high, size=size))
        if size < 2 or np.min(np.diff(x)) >= min_gap:
            return x


def _inside_ball(rng, n: int) -> np.ndarray:
    x = rng.normal(size=n)
    return x * (rng.uniform(0.2, 0.5) / np.linalg.norm(x))


def _bases(n: int, k_max: int, theta) -> list[np.ndarray]:
    # the columns of each degree k = 0..k_max of one harmonic table at theta
    dims = [sphere.dim_harmonics(n, k) for k in range(k_max + 1)]
    keys = [(k, ell) for k, d in enumerate(dims) for ell in range(1, d + 1)]
    return np.split(sphere.harmonic_table(n, keys, theta), np.cumsum(dims[:-1]), axis=-1)


def check_sphere_orthonormality(k_max: int) -> list[CheckResult]:
    """Gram matrices of the degree <= k_max bases under exact quadrature."""
    samples = []
    for n in (2, 3):
        pts, wts = sphere.sphere_nodes(n, 2 * k_max + 2)
        mats = _bases(n, k_max, pts)
        for i, bi in enumerate(mats):
            for j, bj in enumerate(mats):
                gram = (bi * wts[:, None]).T @ bj
                samples.append(gram - (np.eye(bi.shape[1], bj.shape[1]) if i == j else 0.0))
    return [_result("sphere-orthonormality", samples, 1e-10)]


def check_sphere_addition(seed: int, n_dirs: int, k_max: int) -> list[CheckResult]:
    """sum_l Y_{k,l}(theta)^2 = d_k at random directions."""
    _nonempty("n_dirs", n_dirs)
    rng = np.random.default_rng(seed)
    samples = []
    for n in (2, 3):
        dirs = rng.normal(size=(n_dirs, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for k, basis in enumerate(_bases(n, k_max, dirs)):
            samples.append((basis**2).sum(axis=1) - sphere.dim_harmonics(n, k))
    return [_result("sphere-addition-theorem", samples, 1e-10)]


def check_moment_roundtrip(seed: int, sizes) -> list[CheckResult]:
    """measure -> Jacobi matrix -> spectral data returns atoms and weights."""
    _nonempty("sizes", sizes)
    rng = np.random.default_rng(seed)
    samples = []
    for n in sizes:
        atoms = _spread_uniform(rng, -2.0, 2.0, n, 5e-2)
        w = rng.uniform(0.2, 1.0, size=n)
        mu = DiscreteMeasure(atoms, w / w.sum())
        lam, masses = spectral_data_from_jacobi(jacobi_from_measure(mu))
        samples += [lam - mu.atoms, masses - mu.weights]
    return [_result("moment-inverse-roundtrip", samples, 1e-10)]


def check_moment_triple(seed: int, trials: int) -> list[CheckResult]:
    """Continued fraction, corner resolvent and Stieltjes transform agree."""
    _nonempty("trials", trials)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        jac = JacobiMatrix(diag=rng.uniform(-1, 1, n), offdiag=rng.uniform(0.3, 1.0, n - 1))
        mu = DiscreteMeasure(*spectral_data_from_jacobi(jac))
        lam = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.0))
        vals = [continued_fraction_eval(jac, lam), resolvent_NN(jac, lam), stieltjes_transform(mu, lam)]
        samples.append(max(abs(p - q) for p in vals for q in vals) / max(abs(v) for v in vals))
    return [_result("moment-cf-resolvent-eigen", samples, 1e-11)]


def check_moment_nevanlinna(seed: int, n_measures: int) -> list[CheckResult]:
    """Truncated-moment residuals fall monotonically and 1000x over y = 10..1000."""
    _nonempty("n_measures", n_measures)
    rng = np.random.default_rng(seed)
    ratios = []
    monotone = True
    for _ in range(n_measures):
        # paired +-atoms: the 100x-per-decade decay needs the odd tail moment
        # to vanish
        u = np.sort(rng.uniform(0.2, 1.2, size=2))
        w = rng.uniform(0.2, 1.0, size=2)
        mu = DiscreteMeasure([-u[1], -u[0], u[0], u[1]], [w[1], w[0], w[0], w[1]])
        for n_trunc in (1, 2):
            res = nevanlinna_limit_check(mu, n_trunc, [10.0, 100.0, 1000.0])
            monotone = monotone and bool(np.all(np.diff(res) < 0.0))
            ratios.append(res[-1] / res[0])
    return [_result("moment-nevanlinna-decay", ratios, 1e-3, monotone)]


def check_toda(seed: int, sizes, t_final: float, closed_t_final: float, closed_dt: float) -> list[CheckResult]:
    """The Lax invariants and the spectral solution along RK4 trajectories on
    [0, t_final] of random Flaschka states, one per size N in `sizes`.

    Isospectrality, energy and tr L^2 = H/2, then the spectral solution against
    RK4, and both against the N = 2 closed form.  The spectrum and the spectral
    solution are taken at every `_STRIDE`-th sample, one eigen-solve each; the
    energy at every step.  The closed form a = sech(t)/2, b = +-tanh(t)/2 is
    compared with an RK4 run on [0, closed_t_final] at every step and with the
    spectral solution at `_CLOSED_FORM_TIMES`.
    """
    _nonempty("sizes", sizes)
    rng = np.random.default_rng(seed)
    states = [
        JacobiMatrix(offdiag=rng.uniform(0.3, 1.0, size=n - 1), diag=rng.uniform(-1.0, 1.0, size=n))
        for n in sizes
    ]
    drift, energy, trace, dev, closed = [], [], [], [], []
    for state, traj in zip(states, toda_1d.integrate_ensemble(states, t_final, _ENSEMBLE_DT)):
        # H = 4 (sum a^2 + 1/2 sum b^2) at every RK4 step
        h = toda_1d._hamiltonian(traj.b, traj.a)
        energy.append(h - h[0])
        lam = jacobi_eigenvalues(traj.b[::_STRIDE], traj.a[::_STRIDE])
        drift.append(lam - lam[0])
        trace.append(np.sum(lam**2, axis=1) - 0.5 * h[::_STRIDE])
        sampled = toda_1d.spectral_solve(state, traj.times[::_STRIDE])
        dev += [sampled.a - traj.a[::_STRIDE], sampled.b - traj.b[::_STRIDE]]

    s0 = JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.5])
    for traj in (toda_1d.integrate_toda(s0, closed_t_final, closed_dt), toda_1d.spectral_solve(s0, _CLOSED_FORM_TIMES)):
        a_exact = 0.5 / np.cosh(traj.times)
        b_exact = 0.5 * np.tanh(traj.times)
        closed += [traj.a[:, 0] - a_exact, traj.b[:, 0] - b_exact, traj.b[:, 1] + b_exact]
    return [
        _result("toda-isospectral-rk4", drift, 1e-8),
        _result("toda-energy-conservation", energy, 1e-8),
        _result("toda-trace-identity", trace, 1e-12),
        _result("toda-spectral-vs-rk4", dev, 1e-6),
        _result("toda-closed-form-n2", closed, 1e-6),
    ]


def check_kdq_kernel(seed: int, trials: int) -> list[CheckResult]:
    """Harmonic series of the reproducing kernel against its closed form: one `kdq._kernel` call
    per n over draws with arg zeta in (-pi/2, pi/2] and aligned cases x = s theta, whose series also
    meets zeta^{n-1}/(zeta - s)^n (on S^2 at zeta = 0.1 + i the raw radicand's root flips sign)."""
    _nonempty("trials", trials)
    rng = np.random.default_rng(seed)
    samples = []
    th2 = np.array([np.cos(0.3), np.sin(0.3)])
    e3 = np.array([0.0, 0.0, 1.0])
    aligned = {2: [(2.0 + 0.4j, th2, 0.5)], 3: [(2.0 + 0.4j, e3, 0.5), (0.1 + 1.0j, e3, 0.3)]}
    for n in (2, 3):
        points = []
        for _ in range(trials):
            x = _inside_ball(rng, n)
            theta = rng.normal(size=n)
            theta /= np.linalg.norm(theta)
            zeta = np.linalg.norm(x) * rng.uniform(2.0, 5.0) * np.exp(1j * (np.pi / 2 - rng.uniform(0.0, np.pi)))
            points.append((zeta, theta, x))
        for zeta, theta, s in aligned[n]:
            samples.append(kdq.hua_kernel(zeta, theta, s * theta, 40) - zeta ** (n - 1) / (zeta - s) ** n)
            points.append((zeta, theta, s * theta))
        series = np.array([kdq.hua_kernel(zeta, theta, x, 40) for zeta, theta, x in points])
        zetas, dots, r2 = np.array([(zeta, theta @ x, x @ x) for zeta, theta, x in points]).T
        samples.append(series - kdq._kernel(n, zetas, dots.real, r2.real))
    return [_result("kdq-kernel-series-vs-closed", samples, 1e-10)]


def check_kdq_cauchy(seed: int, k_max: int, j_max: int) -> list[CheckResult]:
    """Cauchy-type reproduction of every Almansi monomial with k <= k_max, j <= j_max.

    The monomials and their points are drawn in (k, ell, j) order; the
    direct values of each n come from one batched evaluation.
    """
    for name, value in (("k_max", k_max), ("j_max", j_max)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    samples = []
    for n in (2, 3):
        dims = [sphere.dim_harmonics(n, k) for k in range(k_max + 1)]
        keys = [(j, k, ell) for k, d in enumerate(dims) for ell in range(1, d + 1) for j in range(j_max + 1)]
        polys = [kdq.AlmansiPolynomial(n, {key: 1.0}) for key in keys]
        points = [_inside_ball(rng, n) for _ in keys]
        reproduced = [kdq.cauchy_reproduce(poly, x) for poly, x in zip(polys, points)]
        samples.append(np.array(reproduced) - kdq.almansi_eval_many(polys, points))
    return [_result("kdq-cauchy-reproduction", samples, 1e-8)]


def check_kdq_multi_nevanlinna() -> list[CheckResult]:
    """Multidimensional moment residuals fall like |zeta|^-2 (ratio 3.5-4.5 per doubling)."""
    zetas = [m * np.exp(1j * np.pi / 4) for m in (4.0, 8.0, 16.0)]
    finals = []
    order_ok = True
    for idx in ((0, 1), (1, 1)):
        mu = kdq.PseudoPositiveMeasure(3, {idx: ([0.5], [1.0])})
        res = kdq.multi_nevanlinna_check(mu, idx, 1, zetas)
        ratios = res[:-1] / res[1:]
        order_ok = order_ok and bool(np.all((ratios > 3.5) & (ratios < 4.5)))
        finals.append(res[-1])
    return [_result("kdq-multi-nevanlinna", finals, 1e-4, order_ok)]


def check_pseudo_toda(seed: int, ode_times) -> list[CheckResult]:
    """Invariants of the full n = 3, k <= 2 pseudo-Toda family with N = 4.

    Normalization along the flow, the total Hamiltonian from the Jacobi
    entries of every component (relative to 2 sum lambda^4), the 1-d Toda
    equations of every component at each of `ode_times`, and the growth
    constants C = D = 1 of the associated measure.
    """
    _nonempty("ode_times", ode_times)
    rng = np.random.default_rng(seed)
    comps = {}
    for k in range(3):
        for ell in range(1, sphere.dim_harmonics(3, k) + 1):
            lam = _spread_uniform(rng, 0.2, 1.2, 4, 1e-3)
            m = rng.uniform(0.2, 1.0, size=4)
            comps[(k, ell)] = (lam, m / m.sum())
    state = pseudo_toda.PseudoTodaState(3, comps)

    evolved = [pseudo_toda.evolve(state, t) for t in (0.0, 1.0, 10.0, 100.0)]
    # H = 4 (sum at^2 + 1/2 sum bt^2) from the Jacobi entries against 2 sum lambda^4
    h_reference = 2.0 * sum(float(np.sum(lam**4)) for lam, _ in comps.values())
    hs = [float(np.sum(toda_1d._hamiltonian(*rows))) for rows in map(pseudo_toda.family_jacobi, evolved)]
    rep = kdq.growth_condition_check(pseudo_toda.state_to_measure(pseudo_toda.evolve(state, 2.0)))
    return [
        _result("pseudo-normalization", [pseudo_toda.normalization_invariant(ev) for ev in evolved], 1e-12),
        _result("pseudo-hamiltonian-constant", [(h - h_reference) / h_reference for h in hs], 1e-12),
        _result("pseudo-ode-residual", [pseudo_toda.component_ode_residual(state, t) for t in ode_times], 1e-6),
        _result("pseudo-growth-c-d-one", [rep.C - 1.0, rep.D - 1.0], 1e-12),
    ]


def check_iso_monotonicity(seed: int, trials: int) -> list[CheckResult]:
    """Riccati functionals never increase; their derivatives match the closed form."""
    _nonempty("trials", trials)
    rng = np.random.default_rng(seed)
    increases, residuals = [], []
    for _ in range(trials):
        comps = {
            (k, 1): (rng.uniform(0.3, 2.0, size=3), rng.uniform(0.1, 1.0, size=3))
            for k in range(3)
        }
        rep = iso_flow.monotonicity_check(kdq.PseudoPositiveMeasure(3, comps), np.linspace(0.0, 10.0, 21))
        increases.append(rep.max_increase)
        residuals.append(rep.max_derivative_residual)
    return [_result("iso-monotonicity", increases + residuals, 1e-8, max(increases) <= 1e-12)]


# (check, verify-all keywords, battery keywords), in the order of the table
CHECKS = (
    (check_sphere_orthonormality, {"k_max": 5}, {"k_max": 8}),
    (check_sphere_addition, {"seed": _SEED, "n_dirs": 20, "k_max": 8}, {"seed": 5555, "n_dirs": 50, "k_max": 12}),
    (check_moment_roundtrip, {"seed": _SEED + 1, "sizes": (6,) * 5}, {"seed": 888, "sizes": range(2, 11)}),
    (check_moment_triple, {"seed": _SEED + 2, "trials": 20}, {"seed": 777, "trials": 50}),
    (check_moment_nevanlinna, {"seed": _SEED + 3, "n_measures": 1}, {"seed": 999, "n_measures": 5}),
    (
        check_toda,
        {"seed": _SEED + 4, "sizes": (2, 3, 4, 5, 6), "t_final": 2.0, "closed_t_final": 2.0, "closed_dt": 1e-2},
        {"seed": 12345, "sizes": [2 + i % 7 for i in range(20)], "t_final": 5.0, "closed_t_final": 5.0, "closed_dt": 1e-3},
    ),
    (check_kdq_kernel, {"seed": _SEED + 5, "trials": 15}, {"seed": 1111, "trials": 50}),
    (check_kdq_cauchy, {"seed": _SEED + 6, "k_max": 3, "j_max": 2}, {"seed": 2222, "k_max": 4, "j_max": 3}),
    (check_kdq_multi_nevanlinna, {}, {}),
    (check_pseudo_toda, {"seed": _SEED + 7, "ode_times": (0.5,)}, {"seed": 3333, "ode_times": (0.0, 1.0)}),
    (check_iso_monotonicity, {"seed": _SEED + 8, "trials": 5}, {"seed": 4444, "trials": 20}),
)


def run_all() -> list[CheckResult]:
    """Run every check of `CHECKS` at its `verify-all` keywords, in table order."""
    return [r for check, keywords, _ in CHECKS for r in check(**keywords)]


def format_table(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
