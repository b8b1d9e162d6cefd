"""CLI bytes of the quadric commands against a per-component reference loop.

The library stores every component family packed into flat arrays and
evaluates the transforms, the pseudo-Toda reweighting and the Riccati flow
as array expressions over all atoms.  The reference below does the same
arithmetic one component at a time, the way the package did before it was
packed: one measure, one harmonic and one Stieltjes sum per component.  The
CSV text, stdout, stderr and exit code of `transform-eval`, `iso-flow`,
`simulate-pseudo` and `nevanlinna-check` (kind multi) must match it byte for
byte on ragged atom counts (1 to 17: numpy's pairwise summation starts at
8), atoms that merge within 1e-12, and zero radii with k > 0.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lpmv

from toda_kdq import sphere
from toda_kdq.cli import main
from toda_kdq.kdq import KDQPoint


def ref_harmonic(n, k, ell, theta):
    """Y_{k,ell} from one `lpmv` (or cos/sin) call per component."""
    phi = np.arctan2(theta[..., 1], theta[..., 0])
    if n == 2:
        if k == 0:
            return np.ones(phi.shape)
        return math.sqrt(2.0) * (np.cos(k * phi) if ell == 1 else np.sin(k * phi))
    m = ell - k - 1
    am = abs(m)
    norm = math.sqrt(2 * k + 1) * math.exp(0.5 * (gammaln(k - am + 1) - gammaln(k + am + 1)))
    z = np.clip(theta[..., 2], -1.0, 1.0)
    if m == 0:
        return norm * lpmv(0, k, z)
    radial = math.sqrt(2.0) * norm * lpmv(am, k, z)
    return radial * (np.cos(am * phi) if m > 0 else np.sin(am * phi))


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


def ref_multi(measure, idx, mods):
    comps = ref_components(measure)
    n, (k, ell) = measure["n"], idx
    atoms, weights = comps[idx]
    s = [float(np.sum(weights * atoms ** (k + 2 * j))) if atoms.size else 0.0 for j in range(3)]
    pts, wts = sphere.sphere_nodes(n, max(kk for kk, _ in comps) + k + 2)
    y_idx = ref_harmonic(n, k, ell, pts)
    res = []
    for m in mods:
        zeta = complex(m * np.exp(1j * np.pi / 4))
        vals = np.zeros(pts.shape[0], dtype=complex)
        for (kk, ll), (a, w) in sorted(comps.items()):
            t_val = ref_stieltjes(a, w, kk, zeta)
            if t_val is not None:
                vals += zeta ** (1 - kk) * t_val * ref_harmonic(n, kk, ll, pts)
        t_val = complex(zeta ** (k - 1) * np.sum(wts * vals * y_idx))
        bracket = t_val - sum(s[j] * zeta ** (-2 * j - 2) for j in range(2))
        res.append(abs(zeta ** 6 * bracket - s[2]))
    code = 0 if np.all(np.diff(res) < 0.0) else 3
    return code, csv(["zeta_abs", "residual"], zip(mods, res)), "", ""


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
        r0 = np.sqrt(masses)
        return (r0 / (1.0 + lam * r0 * t)) ** 2

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
        _matches(run_cli(["nevanlinna-check"], config), ref_multi(measure, idx, [2.0, 4.0, 8.0]))

    @settings(max_examples=30, deadline=None)
    @given(measure=measures(2.0), t_grid=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6))
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
