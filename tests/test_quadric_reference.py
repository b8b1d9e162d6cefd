"""CLI bytes of the quadric commands against a per-component reference loop,
and both moment residuals against a high-precision oracle.

The library stores every component family packed into flat arrays and
evaluates the transforms, the pseudo-Toda reweighting and the Riccati flow
as array expressions over all atoms.  The reference below does the same
arithmetic one component at a time, the way the package did before it was
packed: one measure, one harmonic and one Stieltjes sum per component.  The
CSV text, stdout, stderr and exit code of `transform-eval`, `iso-flow` and
`simulate-pseudo` must match it byte for byte on ragged atom counts (1 to
17: numpy's pairwise summation starts at 8), atoms that merge within 1e-12,
and zero radii with k > 0.

The truncated-moment residuals are compared with `mp_residual`, their
subtraction-form definition evaluated in mpmath with at least 20 digits
left after its cancellation, to 1e-13 relative: `nevanlinna_limit_check`
on mixed-sign atoms, `multi_nevanlinna_check` on ragged components, and the
`nevanlinna-check` (kind multi) CSV, whose zeta_abs column and exit code
must match exactly, and its stderr up to the residual values it quotes.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda_kdq import sphere
from toda_kdq.cli import main
from toda_kdq.kdq import KDQPoint, PseudoPositiveMeasure, multi_nevanlinna_check
from toda_kdq.moment_1d import DiscreteMeasure, nevanlinna_limit_check

RAY = complex(np.exp(1j * np.pi / 4))  # arg zeta^2 = pi/2
RESIDUAL_RTOL = 1e-13


def ref_harmonic(n, k, ell, theta):
    """Y_{k,ell} of one component alone (its values are held against
    `scipy.special.sph_harm_y` in tests/test_sphere.py)."""
    return sphere.harmonic_table(n, [(k, ell)], theta)[..., 0]


def ref_measure(atoms, weights):
    """Sorted atoms and weights, neighbours within 1e-12 merged, atom by atom."""
    order = np.argsort(atoms, kind="stable")
    atoms, weights = np.asarray(atoms, dtype=float)[order], np.asarray(weights, dtype=float)[order]
    if atoms.size < 2:
        return atoms, weights
    out_a, out_w = [], []
    i = 0
    while i < atoms.size:
        j = i + 1
        while j < atoms.size and atoms[j] - atoms[j - 1] <= 1e-12:
            j += 1
        w = weights[i:j].sum()
        out_a.append(float(atoms[i:j] @ weights[i:j] / w))
        out_w.append(float(w))
        i = j
    return np.asarray(out_a), np.asarray(out_w)


def ref_components(measure):
    return {(c["k"], c["ell"]): ref_measure(c["atoms"], c["weights"]) for c in measure["components"]}


def ref_stieltjes(atoms, weights, k, zeta):
    """T_{k,l}(zeta^2) of one component, None when no atom carries tilde weight."""
    w = weights * atoms**k
    keep = w > 0.0
    if not keep.any():
        return None
    rho, wt = ref_measure(atoms[keep] ** 2, w[keep])
    return complex(np.sum(wt / (complex(zeta * zeta) - rho)))


def csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(map(repr, map(float, row))) for row in rows]) + "\n"


def ref_transform(measure, theta, zetas, k_max):
    comps = ref_components(measure)
    rows = []
    for re_, im_ in zetas:
        p = KDQPoint(complex(re_, im_), theta)
        total = 0.0 + 0.0j
        for (k, ell), (atoms, weights) in sorted(comps.items()):
            t_val = ref_stieltjes(atoms, weights, k, p.zeta) if k <= k_max else None
            if t_val is not None:
                total += p.zeta ** (1 - k) * float(ref_harmonic(measure["n"], k, ell, p.theta)) * t_val
        rows.append([re_, im_, total.real, total.imag])
    return 0, csv(["zeta_re", "zeta_im", "value_re", "value_im"], rows), "", ""


def mp_residual(atoms, weights, n, z, k=None):
    """|z^{2n+1} (f(z) + sum_{j<2n} s_j z^{-j-1}) + s_{2n}|, f(z) = sum w/(u - z).

    With k given, the atoms are radii r and the residual is that of the
    tilde measure w r^k at u = r^2, taken at z = zeta^2 for the given zeta.
    Every input is an exact double, every step runs in mpmath, and the
    working precision grows until 20 digits survive the cancellation (the
    scale is the largest term with every inner sum taken over |terms|); a
    sum that cancels past 1000 digits is taken as 0.
    """
    dps = 30
    while True:
        with mpmath.workdps(dps):
            u = [mpmath.mpf(float(a)) for a in atoms]
            w = [mpmath.mpf(float(b)) for b in weights]
            zz = mpmath.mpc(complex(z))
            if k is not None:
                w = [wi * ui**k for ui, wi in zip(u, w)]
                u = [ui**2 for ui in u]
                zz = zz**2
            s = [mpmath.fsum(wi * ui**j for ui, wi in zip(u, w)) for j in range(2 * n + 1)]
            terms = [zz ** (2 * n + 1) * mpmath.fsum(wi / (ui - zz) for ui, wi in zip(u, w))]
            terms += [s[j] * zz ** (2 * n - j) for j in range(2 * n)] + [s[2 * n]]
            value = abs(mpmath.fsum(terms))
            scale = max(
                [abs(zz) ** (2 * n + 1) * mpmath.fsum(abs(wi / (ui - zz)) for ui, wi in zip(u, w))]
                + [mpmath.fsum(abs(wi * ui**j) for ui, wi in zip(u, w)) * abs(zz) ** (2 * n - j) for j in range(2 * n + 1)]
            )
            if value == 0 or dps > 1000:
                return 0.0
            lost = float(mpmath.log10(scale / value))
            if dps - lost >= 20:
                return float(value)
        dps = int(lost) + 40


def assert_residuals_close(got, want):
    for g, o in zip(got, want):
        assert abs(g - o) <= RESIDUAL_RTOL * o, (g, o)


def ref_multi(measure, idx, mods):
    """The CSV of `nevanlinna-check` (kind multi, N = 1) with mpmath residuals.

    A component without tilde mass exits 2; an exit-3 stderr is given up to
    the residual values, which are held to RESIDUAL_RTOL through the CSV.
    """
    atoms, weights = ref_components(measure)[idx]
    if not np.any(atoms ** idx[0] > 0.0):
        message = f"the measure has no component (k, ell) = {idx} with tilde mass r^k w > 0"
        return 2, None, "", f"config error: bad nevanlinna config: {message}\n"
    res = [mp_residual(atoms, weights, 1, m * RAY, k=idx[0]) for m in mods]
    text = csv(["zeta_abs", "residual"], zip(mods, res))
    rise = next((i for i in range(1, len(res)) if not res[i] < res[i - 1]), None)
    if rise is None:
        return 0, text, "", ""
    return 3, text, "", f"numeric failure: at zeta_abs = {mods[rise]!r} the residual "


def ref_iso(measure, t_grid, dt=1e-4):
    comps = sorted(ref_components(measure).items())
    times = np.asarray(sorted(float(t) for t in t_grid))

    def tail(key, lam, masses):
        k = key[0]
        if k > 0 and np.any((lam == 0.0) & (masses > 0.0)):
            raise ZeroDivisionError(f"component {key} divides by lambda^{k} at lambda = 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(np.where(masses > 0.0, masses / lam ** float(k), 0.0)))

    def riccati(lam, masses, t):
        if t == 0.0:  # the masses themselves
            return masses
        r0 = np.sqrt(masses)
        flowed = (r0 / (1.0 + lam * r0 * t)) ** 2
        return np.minimum(flowed, masses) if t > 0.0 else flowed  # forward, the exact flow only lowers them

    values = {key: np.empty(times.size) for key, _ in comps}
    max_resid = 0.0
    try:
        for i, t in enumerate(times):
            for key, (lam, m0) in comps:
                masses = riccati(lam, m0, t - 0.0)
                values[key][i] = tail(key, lam, masses)
                ds_num = (tail(key, lam, riccati(lam, m0, t + dt - 0.0)) - tail(key, lam, riccati(lam, m0, t - dt - 0.0))) / (2.0 * dt)
                r = np.sqrt(masses)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ds = float(-2.0 * np.sum(np.where(r > 0.0, r**3 / lam ** float(key[0] - 1), 0.0)))
                max_resid = max(max_resid, abs(ds_num - ds))
    except ZeroDivisionError as exc:
        return 3, None, "", f"numeric failure: {exc}\n"
    max_inc = 0.0
    for key, _ in comps:
        max_inc = max(max_inc, float(np.max(np.diff(values[key]), initial=0.0)))
    passed = max_inc <= 1e-12
    header = ["t"] + [f"S_k{k}_l{ell}" for (k, ell), _ in comps]
    text = csv(header, np.column_stack([times] + [values[key] for key, _ in comps]))
    summary = f"monotone={passed} max_increase={max_inc!r} max_derivative_residual={max_resid!r}\n"
    return 0 if passed else 3, text, summary, ""


def ref_pseudo(state, times):
    comps = {}
    for c in state["components"]:
        lam, m = np.asarray(c["lambdas"], dtype=float), np.asarray(c["masses_tilde"], dtype=float)
        order = np.argsort(lam, kind="stable")
        comps[(c["k"], c["ell"])] = (lam[order], m[order])
    keys = sorted(comps)
    h_total = float(sum(float(2.0 * np.sum(comps[key][0] ** 4)) for key in keys))
    rows = []
    for t in times:
        row = [float(t), h_total]
        for key in keys:
            lam, m = comps[key]
            e = -2.0 * lam**2 * (float(t) - 0.0)
            w = m * np.exp(e - e.max())
            row += (w / w.sum()).tolist()
        rows.append(row)
    header = ["t", "H_total"] + [f"rt2_k{k}_l{ell}_j{j}" for k, ell in keys for j in range(1, len(comps[keys[0]][0]) + 1)]
    return 0, csv(header, rows), "", ""


def run_cli(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.json", Path(tmp) / "out.csv"
        inp.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], "--input", str(inp), "--output", str(out), *argv[1:]])
        text = out.read_text() if out.exists() else None
    return code, text, stdout.getvalue(), stderr.getvalue()


def _indices(n, k_max):
    return [(k, ell) for k in range(k_max + 1) for ell in range(1, sphere.dim_harmonics(n, k) + 1)]


@st.composite
def radial_components(draw, n, radius, zero_radius=True):
    """Components with 1 to 17 distinct atoms, one pair within 1e-12 and one
    zero radius (k > 0) drawn in some of them."""
    keys = draw(st.lists(st.sampled_from(_indices(n, 3)), min_size=1, max_size=6, unique=True))
    comps = []
    for k, ell in keys:
        count = draw(st.integers(1, 17))
        atoms = draw(st.lists(st.floats(0.05, radius), min_size=count, max_size=count, unique=True))
        if count > 1 and draw(st.booleans()):
            atoms[-1] = atoms[0] + draw(st.sampled_from([3e-13, 9e-13]))
        if zero_radius and k > 0 and draw(st.booleans()):
            atoms[draw(st.integers(0, count - 1))] = 0.0
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=count, max_size=count))
        comps.append({"k": k, "ell": ell, "atoms": atoms, "weights": weights})
    return comps


@st.composite
def measures(draw, radius, zero_radius=True):
    n = draw(st.sampled_from([2, 3]))
    comps = draw(radial_components(n, radius, zero_radius))
    return {"n": n, "k_max": 3, "components": comps}


@st.composite
def directions(draw, n):
    v = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if np.linalg.norm(v) < 0.1:
        v = np.eye(n)[0]
    return (v / np.linalg.norm(v)).tolist()


def _matches(got, expected):
    code, text, stdout, stderr = got
    assert (code, stdout, stderr) == (expected[0], expected[2], expected[3])
    if expected[1] is not None:
        assert text == expected[1]


class TestAgainstPerComponentLoop:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), measure=measures(0.95), k_max=st.sampled_from([1, 24]))
    def test_transform_eval(self, data, measure, k_max):
        theta = data.draw(directions(measure["n"]))
        polar = data.draw(st.lists(st.tuples(st.floats(1.1, 3.0), st.floats(-3.1, 3.1)), min_size=1, max_size=4))
        zetas = [[m * math.cos(a), m * math.sin(a)] for m, a in polar]
        got = run_cli(["transform-eval", "--kmax", str(k_max)], {"measure": measure, "theta": theta, "zetas": zetas})
        _matches(got, ref_transform(measure, theta, zetas, k_max))

    @settings(max_examples=20, deadline=None)
    @given(measure=measures(0.95))
    def test_nevanlinna_multi(self, measure):
        idx = (measure["components"][0]["k"], measure["components"][0]["ell"])
        config = {"kind": "multi", "measure": measure, "k": idx[0], "ell": idx[1], "N": 1, "zeta_abs": [2.0, 4.0, 8.0]}
        code, text, stdout, stderr = run_cli(["nevanlinna-check"], config)
        ref_code, ref_text, ref_stdout, ref_stderr = ref_multi(measure, idx, [2.0, 4.0, 8.0])
        assert (code, stdout) == (ref_code, ref_stdout)
        if code == 3:
            assert stderr.startswith(ref_stderr)
        else:
            assert stderr == ref_stderr
        if ref_text is None:
            return
        got, want = (np.loadtxt(io.StringIO(t), delimiter=",", skiprows=1) for t in (text, ref_text))
        assert got[:, 0].tobytes() == want[:, 0].tobytes()
        assert_residuals_close(got[:, 1], want[:, 1])

    @settings(max_examples=30, deadline=None)
    @given(measure=measures(2.0), t_grid=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6))
    @example(measure={"n": 2, "k_max": 0, "components": [{"k": 0, "ell": 1, "atoms": [1.0], "weights": [0.5]}]}, t_grid=[0.0, 0.0])
    def test_iso_flow(self, measure, t_grid):
        _matches(run_cli(["iso-flow"], {"measure": measure, "t_grid": t_grid}), ref_iso(measure, t_grid))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]), size=st.integers(1, 17))
    def test_simulate_pseudo(self, data, n, size):
        keys = data.draw(st.lists(st.sampled_from(_indices(n, 3)), min_size=1, max_size=6, unique=True))
        comps = []
        for k, ell in keys:
            lam = data.draw(st.lists(st.floats(0.0, 1.5), min_size=size, max_size=size, unique=True))
            m = np.asarray(data.draw(st.lists(st.floats(0.1, 1.0), min_size=size, max_size=size)))
            comps.append({"k": k, "ell": ell, "lambdas": lam, "masses_tilde": (m / m.sum()).tolist()})
        state = {"n": n, "N": size, "components": comps, "t": 0.0}
        got = run_cli(["simulate-pseudo", "--t-final", "1", "--dt", "0.25"], state)
        _matches(got, ref_pseudo(state, 0.25 * np.arange(5)))


@st.composite
def signed_atoms(draw):
    """1 to 8 atoms of either sign with |u| in [1e-3, 2], or 0."""
    count = draw(st.integers(1, 8))
    magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
    return [draw(st.sampled_from([-1.0, 1.0])) * draw(magnitude) for _ in range(count)]


class TestMomentResidualOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        atoms=signed_atoms(),
        n=st.integers(0, 3),
        ys=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=4),
    )
    def test_one_dimensional(self, data, atoms, n, ys):
        weights = data.draw(st.lists(st.floats(1e-2, 10.0), min_size=len(atoms), max_size=len(atoms)))
        mu = DiscreteMeasure(atoms, weights)
        got = nevanlinna_limit_check(mu, n, ys)
        assert_residuals_close(got, [mp_residual(mu.atoms, mu.weights, n, 1j * y) for y in ys])

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        measure=measures(0.95),
        n=st.integers(0, 3),
        mods=st.lists(st.floats(1.0, 64.0), min_size=1, max_size=4),
    )
    def test_multi(self, data, measure, n, mods):
        idx = data.draw(st.sampled_from([(c["k"], c["ell"]) for c in measure["components"]]))
        mu = PseudoPositiveMeasure.from_dict(measure)
        atoms, weights = mu.family.component(idx)
        got = multi_nevanlinna_check(mu, idx, n, [m * RAY for m in mods])
        assert_residuals_close(got, [mp_residual(atoms, weights, n, m * RAY, k=idx[0]) for m in mods])
