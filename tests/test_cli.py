import cmath
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda_kdq import cli, kdq, sphere
from toda_kdq.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def state1d(tmp_path):
    return write_json(tmp_path / "state.json", {"schema": 1, "a": [0.5], "b": [0.0, 0.0]})


class TestSimulate1d:
    def test_closed_form_column(self, tmp_path, state1d):
        out = tmp_path / "traj.csv"
        code = main(["simulate-1d", "--input", state1d, "--output", str(out), "--t-final", "2", "--dt", "0.001"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,a_1,b_1,b_2,H")
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] - 0.5 / np.cosh(2.0)) < 1e-6

    def test_deterministic_bytes(self, tmp_path, state1d):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate-1d", "--input", state1d, "--output", str(out1), "--t-final", "1"])
        main(["simulate-1d", "--input", state1d, "--output", str(out2), "--t-final", "1"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_positivity_failure_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "stiff.json", {"a": [2.0], "b": [-4.0, 4.0]})
        code = main(["simulate-1d", "--input", cfg, "--output", str(tmp_path / "o.csv"), "--dt", "0.5"])
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: non-finite state at t = 1.5\n"

    def test_disordered_n64_state(self, tmp_path):
        # some rows of this trajectory have a corner mass of L that rounds to
        # 0; the CSV needs only the eigenvalues, so the run must not stop there
        rng = np.random.default_rng(275)
        a = rng.uniform(0.3, 1.0, 63)
        b = rng.uniform(-1.0, 1.0, 64)
        cfg = write_json(tmp_path / "n64.json", {"a": a.tolist(), "b": b.tolist()})
        out = tmp_path / "n64.csv"
        code = main(["simulate-1d", "--input", cfg, "--output", str(out), "--t-final", "1", "--dt", "1e-3"])
        assert code == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (1001, 1 + 63 + 64 + 1 + 64)
        lam0 = np.linalg.eigvalsh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1))
        assert np.max(np.abs(table[:, -64:] - lam0)) < 1e-10

    def test_coincident_eigenvalues_are_numeric_failure(self, tmp_path, capsys):
        # the eigenvalues 1e21 +- 1 round to one double
        cfg = write_json(tmp_path / "big.json", {"a": [1.0], "b": [1e21, 1e21]})
        code = main(["simulate-1d", "--input", cfg, "--output", str(tmp_path / "o.csv"), "--t-final", "0.01", "--dt", "0.01"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: eigenvalues must be strictly increasing; row 0")
        assert "Traceback" not in err

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["simulate-1d", "--input", str(tmp_path / "nope.json")]) == 2

    def test_bad_state_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"a": [-1.0], "b": [0.0, 0.0]})
        assert main(["simulate-1d", "--input", cfg]) == 2


class TestSpectralSolveCommand:
    def test_matches_simulate(self, tmp_path, state1d):
        o1, o2 = tmp_path / "rk4.csv", tmp_path / "spec.csv"
        main(["simulate-1d", "--input", state1d, "--output", str(o1), "--t-final", "1", "--dt", "0.01"])
        main(["spectral-solve", "--input", state1d, "--output", str(o2), "--t-final", "1", "--dt", "0.01"])
        rows1 = [r.split(",") for r in o1.read_text().strip().split("\n")[1:]]
        rows2 = [r.split(",") for r in o2.read_text().strip().split("\n")[1:]]
        dev = max(
            abs(float(a) - float(b)) for r1, r2 in zip(rows1, rows2) for a, b in zip(r1[:4], r2[:4])
        )
        assert dev < 1e-6

    @pytest.mark.parametrize("n", [96, 128])
    def test_disordered_large_states(self, tmp_path, n):
        # the corner masses of these states underflow, which stopped the
        # solver when it rebuilt L(t) from them
        rng = np.random.default_rng(n)
        a = rng.uniform(0.3, 1.0, n - 1)
        b = rng.uniform(-1.0, 1.0, n)
        cfg = write_json(tmp_path / "state.json", {"a": a.tolist(), "b": b.tolist()})
        spec, rk4 = tmp_path / "spec.csv", tmp_path / "rk4.csv"
        assert main(["spectral-solve", "--input", cfg, "--output", str(spec), "--t-final", "1", "--dt", "0.1"]) == 0
        assert main(["simulate-1d", "--input", cfg, "--output", str(rk4), "--t-final", "1", "--dt", "1e-3"]) == 0
        table = np.loadtxt(spec, delimiter=",", skiprows=1)
        assert table.shape == (11, 1 + (n - 1) + n + 1 + n)
        lam0 = np.linalg.eigvalsh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1))
        assert np.max(np.abs(table[:, -n:] - lam0)) < 1e-10
        last_rk4 = np.loadtxt(rk4, delimiter=",", skiprows=1)[-1]
        assert last_rk4[0] == table[-1, 0] == 1.0
        assert np.max(np.abs(table[-1, 1 : 2 * n] - last_rk4[1 : 2 * n])) < 1e-8

    @pytest.mark.parametrize(
        "state, t_final, message",
        [
            ({"a": [1.0], "b": [0.0, 1.0]}, "5000", "numeric failure: a coupling underflowed to 0 at t = "),
            ({"a": [1.0], "b": [1e21, 0.0]}, "5", "numeric failure: |t| = 5.0 at spectral width 1e+21 needs"),
        ],
        ids=["coupling-underflow", "horizon-past-checkpoints"],
    )
    def test_unreachable_horizon_is_numeric_failure(self, tmp_path, capsys, state, t_final, message):
        cfg = write_json(tmp_path / "state.json", state)
        argv = ["spectral-solve", "--input", cfg, "--output", str(tmp_path / "o.csv"), "--t-final", t_final, "--dt", "1"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(message)


class TestSimulatePseudo:
    def test_mass_columns(self, tmp_path):
        cfg = write_json(
            tmp_path / "p.json",
            {
                "schema": 1,
                "n": 3,
                "N": 2,
                "components": [
                    {"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.5, 0.5]}
                ],
                "t": 0.0,
            },
        )
        out = tmp_path / "p.csv"
        assert main(["simulate-pseudo", "--input", cfg, "--output", str(out), "--t-final", "1", "--dt", "0.5"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,H_total,rt2_k0_l1_j1,rt2_k0_l1_j2"
        final = [float(v) for v in lines[-1].split(",")]
        assert final[2] == pytest.approx(1.0 / (1.0 + np.exp(-1.5)))


class TestTransformEval:
    def test_origin_mass(self, tmp_path):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "schema": 1,
                "measure": {
                    "n": 3,
                    "k_max": 0,
                    "components": [{"k": 0, "ell": 1, "atoms": [0.0], "weights": [1.0]}],
                },
                "theta": [0.0, 0.0, 1.0],
                "zetas": [[2.0, 0.0], [0.0, 3.0]],
            },
        )
        out = tmp_path / "vals.csv"
        assert main(["transform-eval", "--input", cfg, "--output", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert float(rows[0][2]) == pytest.approx(0.5)  # 1/2
        assert float(rows[1][3]) == pytest.approx(-1.0 / 3.0)  # 1/(3i)

    def test_kmax_truncates_series(self, tmp_path):
        cfg = write_json(
            tmp_path / "t2.json",
            {
                "measure": {
                    "n": 2,
                    "k_max": 3,
                    "components": [
                        {"k": 0, "ell": 1, "atoms": [0.0], "weights": [1.0]},
                        {"k": 3, "ell": 1, "atoms": [0.2], "weights": [1.0]},
                    ],
                },
                "theta": [1.0, 0.0],
                "zetas": [[2.0, 0.0]],
            },
        )
        out = tmp_path / "vals.csv"
        assert main(["transform-eval", "--input", cfg, "--output", str(out), "--kmax", "1"]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert float(rows[0][2]) == pytest.approx(0.5)  # only the k=0 term survives

    def test_inside_support_is_numeric_failure(self, tmp_path):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "measure": {
                    "n": 2,
                    "k_max": 0,
                    "components": [{"k": 0, "ell": 1, "atoms": [2.0], "weights": [1.0]}],
                },
                "theta": [1.0, 0.0],
                "zetas": [[1.0, 0.0]],
            },
        )
        assert main(["transform-eval", "--input", cfg, "--output", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("zeta", [[1e308, 0.0], [1e200, 1e200]])
    def test_overflowing_zeta_is_numeric_failure(self, tmp_path, capsys, zeta):
        # zeta^2 overflows; the transform is not evaluated at infinity
        measure = {"n": 3, "k_max": 0, "components": [{"k": 0, "ell": 1, "atoms": [0.5], "weights": [1.0]}]}
        cfg = write_json(tmp_path / "t.json", {"measure": measure, "theta": [0.0, 0.0, 1.0], "zetas": [zeta]})
        assert main(["transform-eval", "--input", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: at zetas[0]: zeta^2 is not finite")

    def test_matches_per_point_values(self, tmp_path):
        # one row per zeta, each the single-point transform; zeta = -1.5 - 0.2i
        # flips to the antipodal representative (1.5 + 0.2i, -theta)
        measure = {
            "n": 3,
            "k_max": 2,
            "components": [
                {"k": 0, "ell": 1, "atoms": [0.2, 0.7], "weights": [0.5, 1.0]},
                {"k": 1, "ell": 3, "atoms": [0.4], "weights": [2.0]},
                {"k": 2, "ell": 2, "atoms": [0.1, 0.9], "weights": [1.0, 0.25]},
            ],
        }
        theta = [0.6, 0.0, 0.8]
        zetas = [[2.0, 0.5], [-1.5, -0.2], [0.0, 3.0], [1.2, -1.1]]
        cfg = write_json(tmp_path / "t.json", {"measure": measure, "theta": theta, "zetas": zetas})
        out = tmp_path / "vals.csv"
        assert main(["transform-eval", "--input", cfg, "--output", str(out)]) == 0
        mu = cli._read_measure(measure)
        lines = ["zeta_re,zeta_im,value_re,value_im"]
        for re, im in zetas:
            val = kdq.markov_stieltjes(mu, [complex(re, im)], theta)[0]
            lines.append(",".join(repr(float(v)) for v in (re, im, val.real, val.imag)))
        assert out.read_text() == "\n".join(lines) + "\n"


def _config_error(capsys, argv) -> bool:
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("config error: ") and "Traceback" not in err


class TestConfigErrors:
    MEASURE = {
        "n": 3,
        "k_max": 0,
        "components": [{"k": 0, "ell": 1, "atoms": [0.5], "weights": [1.0]}],
    }

    @pytest.mark.parametrize(
        "theta", [[0.0, 1.0, 1.0], [1.0, 0.0], ["up", 0.0, 0.0], [float("nan"), 0.0, 1.0]]
    )
    def test_bad_theta(self, tmp_path, capsys, theta):
        # not unit length, wrong dimension for n = 3, not a number, not finite
        cfg = write_json(tmp_path / "t.json", {"measure": self.MEASURE, "theta": theta, "zetas": [[2.0, 0.0]]})
        assert _config_error(capsys, ["transform-eval", "--input", cfg])

    def test_degree_past_the_cap(self, tmp_path, capsys):
        component = {"k": 1001, "ell": 1, "atoms": [0.5], "weights": [1.0]}
        measure = dict(self.MEASURE, k_max=1001, components=[component])
        cfg = write_json(tmp_path / "t.json", {"measure": measure, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]})
        assert _config_error(capsys, ["transform-eval", "--input", cfg])

    @pytest.mark.parametrize("zeta", [[float("nan"), 0.0], [2.0, float("inf")]])
    def test_nonfinite_zeta(self, tmp_path, capsys, zeta):
        cfg = write_json(tmp_path / "t.json", {"measure": self.MEASURE, "theta": [0.0, 0.0, 1.0], "zetas": [zeta]})
        assert _config_error(capsys, ["transform-eval", "--input", cfg])

    @pytest.mark.parametrize(
        "command",
        ["simulate-1d", "spectral-solve", "simulate-pseudo", "transform-eval", "nevanlinna-check", "iso-flow"],
    )
    @pytest.mark.parametrize("payload", [[1, 2], None])
    def test_config_not_an_object(self, tmp_path, capsys, command, payload):
        # one message for every command, simulate-pseudo's without a stage prefix
        cfg = write_json(tmp_path / "c.json", payload)
        assert main([command, "--input", cfg]) == 2
        message = f"config {cfg} must hold a JSON object, not {type(payload).__name__}"
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", list(cli._RUNNERS))
    def test_unknown_flag_is_a_usage_error(self, capsys, command):
        # no command reads --tol: argparse refuses it before any config is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", "1e-4"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: toda-kdq ") and err.endswith("error: unrecognized arguments: --tol 1e-4\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_trunc, grid", [(1, []), (-1, [10.0, 100.0]), (1, [10.0, -100.0])])
    def test_1d_no_data_or_negative_order(self, tmp_path, capsys, n_trunc, grid):
        cfg = write_json(
            tmp_path / "n.json",
            {"kind": "1d", "measure": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}, "N": n_trunc, "y": grid},
        )
        assert _config_error(capsys, ["nevanlinna-check", "--input", cfg])

    @pytest.mark.parametrize(
        "n_trunc, grid, idx",
        [
            pytest.param(1, [], (0, 1), id="1-grid0"),
            pytest.param(-1, [4.0, 8.0], (0, 1), id="-1-grid1"),
            pytest.param(1, [4.0, 8.0], (1, 2), id="absent-component"),
        ],
    )
    def test_multi_no_data_or_negative_order(self, tmp_path, capsys, n_trunc, grid, idx):
        cfg = write_json(
            tmp_path / "m.json",
            {"kind": "multi", "measure": self.MEASURE, "k": idx[0], "ell": idx[1], "N": n_trunc, "zeta_abs": grid},
        )
        assert _config_error(capsys, ["nevanlinna-check", "--input", cfg])

    @pytest.mark.parametrize(
        "atoms, t_grid",
        [
            pytest.param([0.5], [0.0, None], id="null-time"),
            pytest.param([0.5], [0.0, [1.0]], id="list-time"),
            pytest.param([0.5], [0.0, {"t": 1.0}], id="dict-time"),
            pytest.param([], [0.0, 1.0], id="no-atoms"),
        ],
    )
    def test_iso_flow_bad_grid_or_component(self, tmp_path, capsys, atoms, t_grid):
        component = {"k": 0, "ell": 1, "atoms": atoms, "weights": [1.0] * len(atoms)}
        measure = dict(self.MEASURE, components=[component])
        cfg = write_json(tmp_path / "i.json", {"measure": measure, "t_grid": t_grid})
        assert _config_error(capsys, ["iso-flow", "--input", cfg])

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (
                "simulate-1d",
                {"a": [0.5, -0.3], "b": [0.0, 0.0, 0.0]},
                "bad 1-d state: off-diagonal entries must be strictly positive (unreduced), got offdiag[1] = -0.3",
            ),
            (
                "simulate-pseudo",
                {
                    "n": 3,
                    "components": [
                        {"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]},
                        {"k": 1, "ell": 2, "lambdas": [0.5, 1.0], "masses_tilde": [0.35, 0.75]},
                    ],
                },
                "bad pseudo state: tilde masses of component (1, 2) must sum to 1 within 1e-12, got 1.1",
            ),
            (
                "simulate-pseudo",
                {"n": 3, "components": [{"k": 0, "ell": 1, "lambdas": [0.5], "masses_tilde": [1.0]}], "t": float("nan")},
                "bad pseudo state: state time must be finite, got nan",
            ),
            (
                "simulate-pseudo",
                {"n": 3, "components": [{"k": 0, "ell": 1, "lambdas": [0.5], "masses_tilde": [1.0]}, 5]},
                "bad pseudo state: components[1] must be a JSON object, got 5",
            ),
            (
                "transform-eval",
                {
                    "measure": dict(MEASURE, components=[dict(MEASURE["components"][0], k=1)]),
                    "theta": [0.0, 0.0, 1.0],
                    "zetas": [[2.0, 0.0]],
                },
                "bad measure: degree exceeds k_max = 0 in component (1, 1)",
            ),
            (
                "transform-eval",
                {"measure": dict(MEASURE, components={"k": 0}), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
                "bad measure: components must be a JSON list, got {'k': 0}",
            ),
            (
                "iso-flow",
                {"measure": dict(MEASURE, components=[]), "t_grid": [0.0, 1.0]},
                "bad iso-flow config: the measure has no components",
            ),
            (
                "iso-flow",
                {
                    "measure": dict(
                        MEASURE, k_max=1, components=[*MEASURE["components"], {"k": 1, "ell": 1, "atoms": [], "weights": []}]
                    ),
                    "t_grid": [0.0, 1.0],
                },
                "bad iso-flow config: component (1, 1) has no atoms",
            ),
            ("nevanlinna-check", {"kind": "2d"}, "unknown nevanlinna kind '2d'"),
            (
                "transform-eval",
                {"measure": 5, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
                "bad measure: measure must be a JSON object, got 5",
            ),
            ("iso-flow", {"measure": [1], "t_grid": [0.0, 1.0]}, "bad measure: measure must be a JSON object, got [1]"),
            (
                "nevanlinna-check",
                {"kind": "multi", "measure": "m", "k": 0, "ell": 1, "N": 1, "zeta_abs": [4.0]},
                "bad measure: measure must be a JSON object, got 'm'",
            ),
            (
                "transform-eval",
                {
                    "measure": dict(MEASURE, components=[MEASURE["components"][0], {"k": 0, "ell": 2, "weights": [1.0]}]),
                    "theta": [0.0, 0.0, 1.0],
                    "zetas": [[2.0, 0.0]],
                },
                "bad measure: components[1] has no field 'atoms'",
            ),
            (
                "iso-flow",
                {"measure": dict(MEASURE, components=[{"ell": 1, "atoms": [0.5], "weights": [1.0]}]), "t_grid": [0.0, 1.0]},
                "bad measure: components[0] has no field 'k'",
            ),
            (
                "simulate-pseudo",
                {"n": 3, "components": [{"k": 0, "ell": 1, "lambdas": [0.5]}]},
                "bad pseudo state: components[0] has no field 'masses_tilde'",
            ),
            (
                "simulate-pseudo",
                {"n": 3, "components": [{"k": 0, "lambdas": [0.5], "masses_tilde": [1.0]}]},
                "bad pseudo state: components[0] has no field 'ell'",
            ),
            (
                "transform-eval",
                {"measure": {"n": 3, "k_max": 0}, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
                "bad measure: missing field 'components'",
            ),
            (
                "transform-eval",
                {"measure": {"components": MEASURE["components"]}, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
                "bad measure: missing field 'n'",
            ),
            ("simulate-1d", {"a": [0.5]}, "bad 1-d state: missing field 'b'"),
            (
                "nevanlinna-check",
                {"kind": "1d", "N": 1, "y": [10.0]},
                "bad measure: missing field 'measure'",
            ),
            (
                "simulate-pseudo",
                {"components": [{"k": 0, "ell": 1, "lambdas": [0.5], "masses_tilde": [1.0]}]},
                "bad pseudo state: missing field 'n'",
            ),
            (
                "transform-eval",
                {"theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
                "bad measure: missing field 'measure'",
            ),
            ("iso-flow", {"t_grid": [0.0, 1.0]}, "bad measure: missing field 'measure'"),
            ("iso-flow", {"measure": MEASURE}, "bad iso-flow config: missing field 't_grid'"),
            (
                "nevanlinna-check",
                {"kind": "multi", "k": 0, "ell": 1, "N": 1, "zeta_abs": [4.0]},
                "bad measure: missing field 'measure'",
            ),
            (
                "transform-eval",
                {
                    "measure": dict(MEASURE, components=[dict(MEASURE["components"][0], weights=[True])]),
                    "theta": [0.0, 0.0, 1.0],
                    "zetas": [[2.0, 0.0]],
                },
                "bad measure: components[0]: weights must hold JSON numbers only, got weights[0] = True",
            ),
            (
                "nevanlinna-check",
                {"kind": "1d", "measure": {"weights": [1.0]}, "N": 1, "y": [10.0]},
                "bad measure: missing field 'atoms'",
            ),
            (
                "nevanlinna-check",
                {"kind": "1d", "measure": {"atoms": [0.5, True], "weights": [0.5, 0.5]}, "N": 1, "y": [10.0]},
                "bad measure: atoms must hold JSON numbers only, got atoms[1] = True",
            ),
        ],
        ids=[
            "coupling",
            "tilde-masses",
            "nan-time",
            "component-not-object",
            "degree-past-k-max",
            "components-not-list",
            "iso-no-components",
            "iso-empty-component",
            "kind-2d",
            "measure-not-object",
            "iso-measure-not-object",
            "multi-measure-not-object",
            "no-atoms",
            "no-k",
            "no-masses-tilde",
            "no-ell",
            "no-components",
            "no-n",
            "no-b",
            "1d-no-measure",
            "pseudo-no-n",
            "transform-no-measure",
            "iso-no-measure",
            "iso-no-t-grid",
            "multi-no-measure",
            "component-weights-not-numbers",
            "1d-measure-no-atoms",
            "1d-measure-atoms-not-numbers",
        ],
    )
    def test_message_names_the_item(self, command, config, message):
        assert run_in_process([command], config) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize(
        "field, values, rule",
        [
            ("lambdas", [0.5, -1.0], "radii of component (1, 2) must be finite and nonnegative"),
            ("masses_tilde", [1.0, 0.0], "tilde masses of component (1, 2) must be finite and strictly positive"),
        ],
        ids=["radii", "tilde-masses"],
    )
    def test_pseudo_state_names_the_component(self, field, values, rule):
        # the first component is valid, the second breaks one rule
        comps = [
            {"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]},
            {"k": 1, "ell": 2, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75], field: values},
        ]
        config = {"n": 3, "components": comps}
        assert run_in_process(["simulate-pseudo"], config) == (2, f"config error: bad pseudo state: {rule}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify-all", "--kmax", "-1"], "kmax must be nonnegative"),
            (["simulate-1d"], "simulate-1d requires --input"),
        ],
    )
    def test_bad_flags(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "sizes, message",
        [([], "state has no components"), ([2, 3], "component (1, 2) has 3 atoms where component (1, 1) has 2")],
        ids=["sizes0-has no components", "sizes1-heterogeneous atom counts"],
    )
    def test_pseudo_components_without_common_size(self, tmp_path, capsys, sizes, message):
        comps = [
            {"k": 1, "ell": ell, "lambdas": [0.5 * (j + 1) for j in range(size)], "masses_tilde": [1.0 / size] * size}
            for ell, size in enumerate(sizes, start=1)
        ]
        cfg = write_json(tmp_path / "p.json", {"n": 3, "N": 2, "components": comps})
        assert main(["simulate-pseudo", "--input", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err


class TestNevanlinnaCommand:
    def test_one_dimensional(self, tmp_path):
        cfg = write_json(
            tmp_path / "n.json",
            {
                "kind": "1d",
                "measure": {"atoms": [-2.5, -2.0, 2.0, 2.5], "weights": [0.5, 0.5, 0.5, 0.5]},
                "N": 1,
                "y": [10.0, 100.0, 1000.0],
            },
        )
        out = tmp_path / "res.csv"
        assert main(["nevanlinna-check", "--input", cfg, "--output", str(out)]) == 0
        res = [float(r.split(",")[1]) for r in out.read_text().strip().split("\n")[1:]]
        assert res[0] > res[1] > res[2]

    def test_multi(self, tmp_path):
        cfg = write_json(
            tmp_path / "m.json",
            {
                "kind": "multi",
                "measure": {
                    "n": 3,
                    "k_max": 0,
                    "components": [{"k": 0, "ell": 1, "atoms": [0.5], "weights": [1.0]}],
                },
                "k": 0,
                "ell": 1,
                "N": 1,
                "zeta_abs": [4.0, 8.0, 16.0],
            },
        )
        out = tmp_path / "res.csv"
        assert main(["nevanlinna-check", "--input", cfg, "--output", str(out)]) == 0


def run_in_process(argv, config):
    """Exit code and stderr of `main` on `config`, written to a temporary file.
    On exit 0 every number in stdout and in the CSV is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "out.csv"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], "--input", str(path), "--output", str(out), *argv[1:]])
        if code == 0:
            # the CSV cells and the key=value numbers of stdout, as repr writes them
            numbers = re.split(r"[,=\s]+", stdout.getvalue() + "\n" + out.read_text())
            assert [x for x in numbers if x.lower().lstrip("+-") in ("nan", "inf")] == [], numbers
    return code, stderr.getvalue()


# truncation orders up to 10^30; y and zeta_abs entries that are NaN,
# infinite, zero or negative besides valid ones, and zeta_abs inside the support
_ORDERS = st.one_of(st.integers(-2, 6), st.integers(0, 10**30), st.just(10**30))
_BAD = st.sampled_from([float("nan"), float("inf"), 0.0, -1.0])


@st.composite
def nevanlinna_1d_configs(draw):
    atoms = draw(st.lists(st.floats(-3.0, 3.0), max_size=5))
    count = draw(st.sampled_from([len(atoms), len(atoms) + 1]))
    weights = draw(st.lists(st.one_of(st.floats(0.1, 1.0), st.just(-0.5)), min_size=count, max_size=count))
    ys = draw(st.lists(st.one_of(st.floats(1e-3, 1e6), _BAD), max_size=4))
    # now and then a measure that is not a JSON object
    measure = draw(st.one_of(st.just({"atoms": atoms, "weights": weights}), st.sampled_from([atoms, 5, None, "m"])))
    return {"kind": "1d", "measure": measure, "N": draw(_ORDERS), "y": ys}


@st.composite
def nevanlinna_multi_configs(draw):
    n = draw(st.sampled_from([2, 3]))
    indices = [(k, ell) for k in range(3) for ell in range(1, sphere.dim_harmonics(n, k) + 1)]
    comps = []
    for k, ell in draw(st.lists(st.sampled_from(indices), max_size=4, unique=True)):
        atoms = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms)))
        comps.append({"k": k, "ell": ell, "atoms": atoms, "weights": weights})
    # a stored component, or an index the measure does not hold
    k, ell = draw(st.sampled_from([(c["k"], c["ell"]) for c in comps] + [(3, 1), (0, 2)]))
    mods = draw(st.lists(st.one_of(st.floats(0.0, 64.0), _BAD), max_size=4))
    measure = {"n": n, "k_max": 2, "components": comps}
    return {"kind": "multi", "measure": measure, "k": k, "ell": ell, "N": draw(_ORDERS), "zeta_abs": mods}


def _multi_config(k, ell, atoms, zeta_abs):
    # kind multi on a measure of one component (k, ell) with unit weights
    component = {"k": k, "ell": ell, "atoms": atoms, "weights": [1.0] * len(atoms)}
    measure = {"n": 3, "k_max": 2, "components": [component]}
    return {"kind": "multi", "measure": measure, "k": k, "ell": ell, "N": 1, "zeta_abs": zeta_abs}


class TestNevanlinnaExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(config=st.one_of(nevanlinna_1d_configs(), nevanlinna_multi_configs()))
    def test_exit_code_contract(self, config):
        code, err = run_in_process(["nevanlinna-check"], config)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("config error: ")
        elif code == 3:
            assert err.startswith("numeric failure: ") and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(config=st.one_of(nevanlinna_1d_configs(), nevanlinna_multi_configs()))
    # a residual that overflows, one that rises, and a point inside the support
    @example(config={"kind": "1d", "measure": {"atoms": [-1e200, 1e200], "weights": [0.5, 0.5]}, "N": 3, "y": [1e-300, 1.0]})
    @example(config=_multi_config(0, 1, [1e100], [1e101, 1e102]))
    @example(config=_multi_config(0, 1, [0.5], [8.0, 4.0]))
    @example(config=_multi_config(0, 1, [1.5], [1.0]))
    def test_nevanlinna_errors_name_their_stage_or_point(self, config):
        # a configuration error names its reading stage; a numeric failure
        # names its grid value (y, zeta_abs, or the point zeta on the ray) or
        # its component
        code, err = run_in_process(["nevanlinna-check"], config)
        if code == 2:
            assert re.match(r"config error: bad (measure|nevanlinna config): ", err)
        elif code == 3:
            assert re.match(r"numeric failure: .*(\b(y|zeta_abs|zeta) = |\|zeta\| = |\bcomponent \(\d+, \d+\))", err)
        else:
            assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"kind": "1d", "measure": {"atoms": [], "weights": []}, "N": 1, "y": [1.0, 2.0]},
                "the measure has no atoms",
            ),
            (
                _multi_config(0, 1, [], [4.0, 8.0]),
                "the measure has no component (k, ell) = (0, 1) with tilde mass r^k w > 0",
            ),
            (
                _multi_config(1, 3, [0.0], [4.0, 8.0]),
                "the measure has no component (k, ell) = (1, 3) with tilde mass r^k w > 0",
            ),
        ],
        ids=["1d-no-atoms", "multi-no-atoms", "multi-atom-at-zero"],
    )
    def test_massless_target(self, config, message):
        assert run_in_process(["nevanlinna-check"], config) == (2, f"config error: bad nevanlinna config: {message}\n")

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"kind": "1d", "measure": {"atoms": [0.0], "weights": [1.0]}, "N": 1, "y": [1.0, 2.0]},
                "at y = 2.0 the residual 0.0 does not decrease from 0.0",
            ),
            (_multi_config(0, 1, [0.5], [8.0, 4.0]), "at zeta_abs = 4.0 the residual "),
            (
                {"kind": "1d", "measure": {"atoms": [-1e200, 1e200], "weights": [0.5, 0.5]}, "N": 3, "y": [1e-300, 1.0]},
                "at y = 1e-300 the moment remainder of order n = 3 is not finite\n",
            ),
            (
                _multi_config(0, 1, [1e100], [1e101, 1e102]),
                "at zeta = (7.071067811865475e+100+7.071067811865474e+100j) "
                "the moment remainder of component (0, 1) of order n = 1 is not finite\n",
            ),
            (
                _multi_config(0, 1, [1e100], [10, 1e102]),
                "at zeta_abs = 10.0 for component (0, 1): "
                "transform requires |zeta| > support radius 1e+100; got |zeta| = 10.0\n",
            ),
            (
                _multi_config(0, 1, [0.5], [1e200]),
                "at zeta_abs = 1e+200 for component (0, 1): "
                "zeta^2 is not finite at zeta = (7.071067811865475e+199+7.071067811865474e+199j)\n",
            ),
        ],
        ids=["flat", "rising", "overflow-1d", "overflow-multi", "inside-support-multi", "square-overflows-multi"],
    )
    def test_numeric_failure_names_the_point(self, config, message):
        code, err = run_in_process(["nevanlinna-check"], config)
        assert code == 3 and err.startswith(f"numeric failure: {message}") and err.endswith("\n")

    @pytest.mark.parametrize("measure", [[1], 5])
    def test_measure_not_an_object(self, measure):
        code, err = run_in_process(["nevanlinna-check"], {"kind": "1d", "measure": measure, "N": 1, "y": [1.0]})
        assert (code, err) == (2, f"config error: bad measure: measure must be a JSON object, got {measure!r}\n")

    def test_quad_degree_flag_is_gone(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "m.json", {"kind": "multi", "measure": _MEASURE_3, "k": 0, "ell": 1, "N": 1, "zeta_abs": [4.0]})
        with pytest.raises(SystemExit) as exc:
            main(["nevanlinna-check", "--input", cfg, "--quad-degree", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-degree 8" in capsys.readouterr().err


# lattice entries: ordinary values, 1e21 to 1e300 of either sign, NaN,
# infinities, zero and a negative value; --t-final <= 1 and --dt >= 1e-2
_LATTICE_ENTRY = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(1e21, 1e300),
    st.floats(-1e300, -1e21),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0]),
)
_HORIZONS = st.tuples(st.sampled_from(["0.01", "0.25", "1"]), st.sampled_from(["0.01", "0.1", "0.5"]))


@st.composite
def lattice_configs(draw):
    n = draw(st.integers(0, 8))
    b = draw(st.lists(_LATTICE_ENTRY, min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        b[0] = b[1] = draw(st.floats(9e20, 1.1e21))  # equal b near 1e21
    count = draw(st.sampled_from([max(n - 1, 0), n, max(n - 2, 0)]))
    a = draw(st.lists(st.one_of(st.floats(0.1, 1.0), _LATTICE_ENTRY), min_size=count, max_size=count))
    nested = draw(st.sampled_from(["", "a", "b"]))
    return {"a": [a] if nested == "a" else a, "b": [b] if nested == "b" else b}


class TestLatticeExitCodes:
    # a RuntimeWarning (numpy's overflow report) would reach stderr outside pytest
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["simulate-1d", "spectral-solve"]),
        config=lattice_configs(),
        horizon=_HORIZONS,
    )
    def test_exit_code_contract(self, command, config, horizon):
        code, err = run_in_process([command, "--t-final", horizon[0], "--dt", horizon[1]], config)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("config error: ")
        else:
            assert err == "" or err.startswith("numeric failure: ")

    @pytest.mark.parametrize("command", ["simulate-1d", "spectral-solve"])
    def test_overflowing_hamiltonian(self, command):
        code, err = run_in_process([command, "--t-final", "0.01", "--dt", "0.01"], {"a": [], "b": [2e215]})
        assert (code, err) == (3, "numeric failure: the Hamiltonian H overflows at t = 0.0\n")

    @pytest.mark.parametrize("command", ["simulate-1d", "spectral-solve"])
    def test_eigensolver_without_convergence(self, command, monkeypatch):
        # entries from 1e-300 to 1e152 on which LAPACK ?syevd with vectors (the
        # QR checkpoints of spectral-solve) stops
        state = {
            "a": [8.67814044e-300, 7.50153419e104, 1.40684734e-075, 3.05678001e-125, 4.05273160e-169],
            "b": [0.0, -0.0, 0.0, -0.0, -1.04417894e020, 1.01732046e152],
        }
        if command == "simulate-1d":
            # the CSV's eigenvalue-only ?sterf converges on it, to a triple 0
            code, err = run_in_process([command, "--t-final", "0.01", "--dt", "0.5"], state)
            assert (code, err) == (3, "numeric failure: eigenvalues must be strictly increasing; row 0 repeats one\n")
            # no state is known on which ?sterf stops, so a solver that stops stands in
            monkeypatch.setattr(np.linalg, "eigvalsh", _unconverged)
        code, err = run_in_process([command, "--t-final", "0.01", "--dt", "0.5"], state)
        assert code == 3 and err.startswith("numeric failure: ") and "did not converge" in err


# quadric component values: the fuzz's special values (zero, negative, tiny,
# huge, NaN, infinite, a boolean, a numeric string) among ordinary ones
_SPECIAL = st.sampled_from([0.0, -1.0, 1e-300, 1e300, 1e21, float("nan"), float("inf"), True, "2.5"])
_QUADRIC_VALUE = st.one_of(_SPECIAL, st.floats(0.05, 2.0))


# a component field left out, now and then
_DROPPED = st.sampled_from([None] * 4 + ["k", "ell", "atoms", "weights"])
# a measure that is not a JSON object, now and then
_MEASURES = st.sampled_from([None] * 9 + [5, [1], "m", True])
# a bad measure's message names the measure, or its entry or component at fault
_MEASURE_NAMES_ITS_ITEM = re.compile(
    r"config error: bad measure: (measure must be a JSON object|.*\bcomponents\[\d+\]|.*\bcomponent \(\d+, \d+\))"
)

# a bad pseudo state's message names components[i], the component (k, l) or
# a top-level field: n, t or components
_STATE_NAMES_ITS_ITEM = re.compile(
    r"config error: bad pseudo state: (.*\bcomponents\[\d+\]|.*\bcomponent \(\d+, \d+\)|(n|t|components) must |"
    r"missing field '(n|components)'|state (has no components|time must be finite))"
)


@st.composite
def quadric_measures(draw):
    n = draw(st.sampled_from([2, 3]))
    indices = [(k, ell) for k in range(3) for ell in range(1, sphere.dim_harmonics(n, k) + 1)]
    comps = []
    for k, ell in draw(st.lists(st.sampled_from(indices), max_size=3, unique=True)):
        count = draw(st.integers(0, 3))
        atoms = draw(st.lists(_QUADRIC_VALUE, min_size=count, max_size=count))
        weights = draw(st.lists(_QUADRIC_VALUE, min_size=count, max_size=count))
        comps.append({"k": k, "ell": ell, "atoms": atoms, "weights": weights})
        comps[-1].pop(draw(_DROPPED), None)
    return {"n": n, "k_max": 2, "components": comps}


@st.composite
def fuzzed_transform_eval_configs(draw):
    measure = draw(quadric_measures())
    theta = [0.0] * (measure["n"] - 1) + [draw(st.one_of(st.just(1.0), _SPECIAL))]
    zetas = draw(st.lists(st.lists(_QUADRIC_VALUE, min_size=2, max_size=2), max_size=3))
    return {"measure": draw(_MEASURES) or measure, "theta": theta, "zetas": zetas}


@st.composite
def valid_transform_eval_configs(draw):
    # a valid measure of degrees up to --kmax's 24 and a unit theta; |zeta|
    # log-uniform over the doubles from 2, the largest atom, to 2^512, whose
    # square overflows (exit 3 from 2^511), and arg zeta uniform
    n = draw(st.sampled_from([2, 3]))
    indices = [(k, ell) for k in range(25) for ell in range(1, sphere.dim_harmonics(n, k) + 1)]
    comps = []
    for k, ell in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True)):
        count = draw(st.integers(1, 3))
        atoms = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
        weights = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
        comps.append({"k": k, "ell": ell, "atoms": atoms, "weights": weights})
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(lambda v: math.hypot(*v) > 0.1))
    norm = math.hypot(*v)
    theta = [x / norm for x in v]
    zetas = []
    for _ in range(draw(st.integers(1, 3))):
        modulus = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(2, 512)))
        zeta = cmath.rect(modulus, draw(st.floats(-math.pi, math.pi)))
        zetas.append([zeta.real, zeta.imag])
    return {"measure": {"n": n, "k_max": 24, "components": comps}, "theta": theta, "zetas": zetas}


def transform_eval_configs():
    return st.one_of(fuzzed_transform_eval_configs(), valid_transform_eval_configs())


def far_transform_eval_config(re_, im_):
    # |zeta| >= 2^511 with zeta^2 finite: 1/(zeta^2 - 1) is not a normal double
    # there, and numpy's complex division read 0.0 with an overflow warning
    measure = {"n": 2, "k_max": 24, "components": [{"k": 0, "ell": 1, "atoms": [1.0], "weights": [1.0]}]}
    return {"measure": measure, "theta": [0.0, 1.0], "zetas": [[re_, im_]]}


@st.composite
def simulate_pseudo_configs(draw):
    # the fuzzed measure's components renamed; in three draws of four a valid
    # state instead: the components that keep k and ell, of one atom count,
    # lambdas in [0, 25] (past about 19 a mass may underflow by t = 1: exit 3)
    # and masses_tilde that sum to one
    measure = draw(quadric_measures())
    names = {"k": "k", "ell": "ell", "atoms": "lambdas", "weights": "masses_tilde"}
    comps = [{names[field]: value for field, value in c.items()} for c in measure["components"]]
    if draw(st.sampled_from([True, True, True, False])):
        size, valid = draw(st.integers(1, 3)), []
        for c in comps:
            if "k" in c and "ell" in c:
                lambdas = draw(st.lists(st.floats(0.0, 25.0), min_size=size, max_size=size))
                masses = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
                valid.append({"k": c["k"], "ell": c["ell"], "lambdas": lambdas, "masses_tilde": [m / sum(masses) for m in masses]})
        comps = valid
    return {"n": measure["n"], "components": comps}


@st.composite
def iso_flow_configs(draw):
    measure = draw(_MEASURES) or draw(quadric_measures())
    return {"measure": measure, "t_grid": draw(st.lists(st.one_of(st.floats(0.0, 5.0), _SPECIAL), max_size=4))}


class TestQuadricExitCodes:
    # a RuntimeWarning (numpy's overflow report) would reach stderr outside pytest
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just("transform-eval"), transform_eval_configs()),
            st.tuples(st.just("iso-flow"), iso_flow_configs()),
            st.tuples(st.just("simulate-pseudo"), simulate_pseudo_configs()),
        )
    )
    @example(case=("transform-eval", far_transform_eval_config(1.1031054780462262e154, 6.026292692169782e153)))
    @example(case=("transform-eval", far_transform_eval_config(7.01788611802308e153, 1.092971005095755e154)))
    def test_exit_code_contract(self, case):
        command, config = case
        code, err = run_in_process([command, "--t-final", "1", "--dt", "0.25"], config)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        assert "np." not in err  # plain numbers, not numpy reprs
        # a KeyError's repr such as "bad measure: 'atoms'" names no item
        assert "not subscriptable" not in err and not re.search(r": '[^']*'$", err.rstrip("\n"))
        if code == 2:
            assert err.startswith("config error: ")
        else:
            assert err == "" or err.startswith("numeric failure: ")

    @staticmethod
    def measure(atoms, weights, k=0):
        return {"n": 3, "k_max": 2, "components": [{"k": k, "ell": 1, "atoms": atoms, "weights": weights}]}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, config, expected",
        [
            (
                "transform-eval",
                {"measure": measure([0.5], [1.0]), "theta": [1e300, 0.0, 0.0], "zetas": [[2.0, 0.5]]},
                (2, "config error: bad transform-eval config: direction must be unit length within 1e-12; |v| = inf\n"),
            ),
            (
                # a w = 1e600 for the lone atom keeps a = 1e300, not inf
                "transform-eval",
                {"measure": measure([0.5, 1e300], [1.0, 1e300]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]},
                (3, "numeric failure: at zetas[0]: transform requires |zeta| > support radius 1e+300; got |zeta| = 2.0615528128088303\n"),
            ),
            (
                # lambda r(0) = inf: the masses at t = 0 are finite, but
                # dS/dt = -2 r(0)^3 lambda there is not
                "iso-flow",
                {"measure": measure([1e300], [1e300]), "t_grid": [0.0, 1.0]},
                (3, "numeric failure: dS/dt of component (0, 1) overflows\n"),
            ),
            (
                "iso-flow",
                {"measure": measure([1e-300, 1.5], [1e300, 0.9]), "t_grid": [0.0, 1.0]},
                (3, "numeric failure: dS/dt of component (0, 1) overflows\n"),
            ),
            (
                # the masses are finite, but dS/dt = -2 r(0)^3 lambda at t = 0 is not
                "iso-flow",
                {"measure": measure([0.5], [1.7e308]), "t_grid": [0.0, 1e-310]},
                (3, "numeric failure: dS/dt of component (0, 1) overflows\n"),
            ),
            (
                "iso-flow",
                {"measure": measure([1e-300, 1.5], [1.0, 0.9], k=2), "t_grid": [0.0, 1.0]},
                (3, "numeric failure: S_{k,l} of component (2, 1) overflows\n"),
            ),
            (
                "transform-eval",
                {"measure": measure([0.5], [1.0], k=10**30), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]},
                (
                    2,
                    "config error: bad measure: harmonic index (k=1000000000000000000000000000000, ell=1) "
                    "does not fit a 64-bit integer\n",
                ),
            ),
            (
                "transform-eval",
                {
                    "measure": {
                        "n": 3,
                        "k_max": 2,
                        "components": [{"k": 1, "ell": 10**23, "atoms": [0.5], "weights": [1.0]}],
                    },
                    "theta": [0.0, 0.0, 1.0],
                    "zetas": [[2.0, 0.5]],
                },
                (
                    2,
                    "config error: bad measure: harmonic index (k=1, ell=100000000000000000000000) "
                    "does not fit a 64-bit integer\n",
                ),
            ),
            (
                "transform-eval",
                far_transform_eval_config(1.1031054780462262e154, 6.026292692169782e153),
                (3, "numeric failure: at zetas[0]: transform requires |zeta| < 2^511; got |zeta| = 1.2569819934321185e+154\n"),
            ),
            (
                "transform-eval",
                far_transform_eval_config(7.01788611802308e153, 1.092971005095755e154),
                (3, "numeric failure: at zetas[0]: transform requires |zeta| < 2^511; got |zeta| = 1.2988813932131892e+154\n"),
            ),
        ],
        ids=[
            "theta", "merged-atom", "riccati", "ds-dt", "backward-mass", "functional", "k-past-int64", "ell-past-int64",
            "far-zeta", "far-zeta-2",
        ],
    )
    def test_huge_values(self, command, config, expected):
        assert run_in_process([command], config) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(config=iso_flow_configs())
    # the draws reach exit 3 about once in a hundred: these always do; and a
    # negative atom and a merged weight that overflows, which the draws reach rarely
    @example(config={"measure": measure([0.5, -0.5], [1.0, 1.0]), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([0.5, 0.5], [1e308, 1e308]), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([1e300], [1e300]), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([0.5], [1.7e308]), "t_grid": [0.0, 1e-310]})
    @example(config={"measure": measure([1e-300], [1.0], k=2), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([0.0], [1.0], k=2), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([1e100], [1e182], k=1), "t_grid": [0.0, 1.0]})
    @example(config={"measure": measure([0.5], [1.0])})  # no t_grid, which the draws always hold
    def test_iso_flow_errors_name_their_stage_or_component(self, config):
        # a configuration error names its reading stage, and a bad measure its
        # component; a numeric failure, an overflow, a division by lambda^k or
        # a rise, names its component
        code, err = run_in_process(["iso-flow", "--t-final", "1", "--dt", "0.25"], config)
        if code == 2:
            assert re.match(r"config error: bad (measure|iso-flow config): ", err)
            assert _MEASURE_NAMES_ITS_ITEM.match(err) or not err.startswith("config error: bad measure: ")
        elif code == 3:
            assert re.match(r"numeric failure: .*\bcomponent \(\d+, \d+\) ", err)
        else:
            assert (code, err) == (0, "")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(config=transform_eval_configs())
    # a zeta that is not finite, inside the support, whose square overflows, a
    # tilde weight, a tilde atom and a merged tilde weight that overflow, a zeta
    # and a theta entry that are no number, and a theta entry that is not
    # finite: the draws reach all but the first and the last three rarely
    @example(config={"measure": measure([0.5], [1.0]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0], [1.0, float("nan")]]})
    @example(config={"measure": measure([0.5, 1e300], [1.0, 1e300]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]})
    @example(config={"measure": measure([0.5], [1.0]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5], [1e200, 0.0]]})
    @example(config={"measure": measure([1.5], [1e308], k=2), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]})
    @example(config={"measure": measure([1e200], [1.0]), "theta": [0.0, 0.0, 1.0], "zetas": []})
    @example(config={"measure": measure([1e-6, 1.000002e-6], [1e308, 1e308]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]})
    @example(config={"measure": measure([0.5], [1.0]), "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5], True]})
    @example(config={"measure": measure([0.5], [1.0]), "theta": [0.0, "2.5", 1.0], "zetas": [[2.0, 0.5]]})
    @example(config={"measure": measure([0.5], [1.0]), "theta": [0.0, 0.0, float("nan")], "zetas": [[2.0, 0.5]]})
    def test_transform_eval_errors_name_their_stage_or_item(self, config):
        # a configuration error names its reading stage, a bad measure its
        # component, and a theta or zetas entry that is no finite number its
        # index; a numeric failure names the entry or the component
        code, err = run_in_process(["transform-eval"], config)
        if code == 2:
            assert re.match(r"config error: bad (measure|transform-eval config): ", err)
            assert _MEASURE_NAMES_ITS_ITEM.match(err) or not err.startswith("config error: bad measure: ")
            if re.search(r"entries must be finite|JSON numbers only", err):
                assert re.search(r"\b(theta|zetas|atoms|weights)(\[\d+\])+ = |\bcomponent \(\d+, \d+\)", err)
        elif code == 3:
            assert re.match(r"numeric failure: (at zetas\[\d+\]: |.*\bcomponent \(\d+, \d+\) )", err)
        else:
            assert (code, err) == (0, "")

    @staticmethod
    def state(*components):
        # a pseudo state of n = 3 with the components (k, ell, lambdas, masses_tilde)
        return {"n": 3, "components": [dict(zip(("k", "ell", "lambdas", "masses_tilde"), c)) for c in components]}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(config=simulate_pseudo_configs())
    # no components, atom counts that differ, and a mass that underflows by
    # t = 0.25 (exit 3), which the draws reach rarely or never
    @example(config=state())
    @example(config=state((0, 1, [0.5, 1.0], [0.25, 0.75]), (1, 2, [0.5], [1.0])))
    @example(config=state((0, 1, [0.0, 1e3], [0.5, 0.5])))
    def test_simulate_pseudo_errors_name_their_stage_or_item(self, config):
        # a configuration error names its reading stage and components[i],
        # the component or a top-level field; a numeric failure names its component
        code, err = run_in_process(["simulate-pseudo", "--t-final", "1", "--dt", "0.25"], config)
        if code == 2:
            assert _STATE_NAMES_ITS_ITEM.match(err), err
        elif code == 3:
            assert re.match(r"numeric failure: .*\bcomponent \(\d+, \d+\) ", err), err
        else:
            assert (code, err) == (0, "")


def _unconverged(a, UPLO="L"):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestIsoFlowCommand:
    def test_monotone_run(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "iso.json",
            {
                "measure": {
                    "n": 3,
                    "k_max": 1,
                    "components": [{"k": 1, "ell": 1, "atoms": [1.0], "weights": [1.0]}],
                },
                "t_grid": [0.0, 1.0, 2.0, 5.0],
            },
        )
        out = tmp_path / "s.csv"
        assert main(["iso-flow", "--input", cfg, "--output", str(out)]) == 0
        assert "monotone=True" in capsys.readouterr().out
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "t,S_k1_l1"
        assert float(rows[2].split(",")[1]) == pytest.approx(0.25)


    def test_blow_up_just_before_the_grid(self, tmp_path, capsys):
        # lambda sqrt(m) = 1e4 puts the backward blow-up at -1e-4, just before
        # the grid's first time; the derivative check evaluates no earlier time
        measure = {"n": 3, "k_max": 0, "components": [{"k": 0, "ell": 1, "atoms": [100.0], "weights": [1e4]}]}
        cfg = write_json(tmp_path / "iso.json", {"measure": measure, "t_grid": [0.0, 1.0]})
        out = tmp_path / "s.csv"
        assert main(["iso-flow", "--input", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("monotone=True max_increase=0.0 ")
        assert out.read_text() == "t,S_k0_l1\n0.0,10000.0\n1.0,9.998000299960007e-05\n"

    def test_no_rise_of_a_large_mass_at_a_tiny_time(self, tmp_path, capsys):
        # uncapped, the mass 20000.74 read fl(sqrt(m))^2 = m + 3.6e-12 at
        # t = 1e-300, a rise of 3.6e-12
        measure = {"n": 3, "k_max": 0, "components": [{"k": 0, "ell": 1, "atoms": [1.0], "weights": [20000.74]}]}
        cfg = write_json(tmp_path / "iso.json", {"measure": measure, "t_grid": [0.0, 1e-300, 1.0]})
        out = tmp_path / "s.csv"
        assert main(["iso-flow", "--input", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("monotone=True max_increase=0.0 ")
        assert out.read_text().split("\n")[2] == "1e-300,20000.74"


    def test_infinite_time_with_an_atom_at_zero(self, tmp_path, capsys):
        # 1 + lambda r(0) t is 1 + 0 * inf at lambda = 0, t = inf; the atom
        # keeps its mass there, as at every finite time
        measure = {"n": 3, "k_max": 0, "components": [{"k": 0, "ell": 1, "atoms": [0.0], "weights": [1.0]}]}
        cfg = tmp_path / "iso.json"
        cfg.write_text(json.dumps({"measure": measure, "t_grid": [0, 1e999]}).replace("Infinity", "1e999"))
        out = tmp_path / "s.csv"
        assert main(["iso-flow", "--input", str(cfg), "--output", str(out)]) == 0
        assert capsys.readouterr() == ("monotone=True max_increase=0.0 max_derivative_residual=0.0\n", "")
        assert out.read_text() == "t,S_k0_l1\n0.0,1.0\ninf,1.0\n"

_STATE_1D = {"a": [0.5, 0.3], "b": [0.1, 0.0, -0.2]}
_MEASURE_3 = {
    "n": 3,
    "k_max": 1,
    "components": [
        {"k": 0, "ell": 1, "atoms": [0.2, 0.7], "weights": [0.5, 1.0]},
        {"k": 1, "ell": 3, "atoms": [0.4], "weights": [2.0]},
    ],
}



def _ragged(count, k, ell, lo, hi, phase):
    # irrational-step radii in [lo, hi) and weights in [0.1, 1), distinct per component
    atoms = [lo + (hi - lo) * ((phase + 0.6180339887 * j) % 1.0) for j in range(count)]
    weights = [0.1 + 0.9 * ((phase + 0.4142135623 * j) % 1.0) for j in range(count)]
    return {"k": k, "ell": ell, "atoms": atoms, "weights": weights}


# atom counts 1 to 17 (numpy's pairwise summation starts at 8), atoms that
# merge within 1e-12, and zero radii with k > 0
_MEASURE_RAGGED_2 = {
    "n": 2,
    "k_max": 3,
    "components": [
        {"k": 0, "ell": 1, "atoms": [0.0, 0.3, 0.3 + 4e-13, 0.6], "weights": [0.2, 0.5, 0.25, 1.0]},
        _ragged(9, 1, 1, 0.05, 0.95, 0.11),
        {"k": 1, "ell": 2, "atoms": [0.0], "weights": [0.7]},
        _ragged(17, 2, 1, 0.05, 0.95, 0.37),
        {"k": 3, "ell": 2, "atoms": [0.0, 0.45, 0.8], "weights": [0.3, 0.6, 0.9]},
    ],
}
_MEASURE_RAGGED_3 = {
    "n": 3,
    "k_max": 2,
    "components": [
        _ragged(1, 0, 1, 0.3, 2.0, 0.5),
        _ragged(8, 1, 1, 0.3, 2.0, 0.23),
        _ragged(17, 1, 3, 0.3, 2.0, 0.71),
        _ragged(3, 2, 4, 0.3, 2.0, 0.05),
    ],
}

_VERIFY_ALL_TABLE = (
    "PASS sphere-orthonormality observed=1.5543122344752192e-15 tol=1e-10\n"
    "PASS sphere-addition-theorem observed=1.4921397450962104e-13 tol=1e-10\n"
    "PASS moment-inverse-roundtrip observed=9.71445146547012e-16 tol=1e-10\n"
    "PASS moment-cf-resolvent-eigen observed=1.5634623577627419e-15 tol=1e-11\n"
    "PASS moment-nevanlinna-decay observed=0.00010084799371029036 tol=0.001\n"
    "PASS toda-isospectral-rk4 observed=7.299716386910404e-14 tol=1e-08\n"
    "PASS toda-energy-conservation observed=2.5579538487363607e-13 tol=1e-08\n"
    "PASS toda-trace-identity observed=2.6645352591003757e-15 tol=1e-12\n"
    "PASS toda-spectral-vs-rk4 observed=3.5818570331969113e-13 tol=1e-06\n"
    "PASS toda-closed-form-n2 observed=5.023798044234695e-11 tol=1e-06\n"
    "PASS kdq-kernel-series-vs-closed observed=8.646307307647866e-15 tol=1e-10\n"
    "PASS kdq-cauchy-reproduction observed=2.581545120445489e-16 tol=1e-08\n"
    "PASS kdq-multi-nevanlinna observed=6.103512714619036e-05 tol=0.0001\n"
    "PASS pseudo-normalization observed=2.220446049250313e-16 tol=1e-12\n"
    "PASS pseudo-hamiltonian-constant observed=3.4128663216246534e-16 tol=1e-12\n"
    "PASS pseudo-ode-residual observed=1.2565790075136363e-09 tol=1e-06\n"
    "PASS pseudo-growth-c-d-one observed=4.440892098500626e-16 tol=1e-12\n"
    "PASS iso-monotonicity observed=8.881784197001252e-16 tol=1e-08\n"
    "18/18 checks passed\n"
)


class TestPinnedOutputs:
    """CSV text and stdout of every command on tiny inputs, byte for byte.

    The expected strings are literals, so a change that moves any byte of
    any command's output fails here.
    """

    CASES = {
        "simulate-1d": (
            ["simulate-1d", "--t-final", "0.02", "--dt", "0.01"],
            _STATE_1D,
            (
                "t,a_1,a_2,b_1,b_2,b_3,H,lambda_1,lambda_2,lambda_3\n"
                "0.0,0.5,0.3,0.1,0.0,-0.2,1.46,-0.5914611189303556,-0.11441297378477057,0.605874092715126\n"
                "0.01,0.49947978183082725,0.29940269748792603,0.10499486692657073,-0.003198453749914661,"
                "-0.20179641317665606,1.459999999999834,-0.5914611189300196,-0.1144129737852714,0.605874092715291\n"
                "0.02,0.49891926059661557,0.2988107790143198,0.10997893758107326,-0.006393232362163059,"
                "-0.2035857052189102,1.4599999999996316,-0.5914611189296787,-0.11441297378576784,0.6058740927154465\n"
            ),
            "",
        ),
        "spectral-solve": (
            ["spectral-solve", "--t-final", "0.02", "--dt", "0.01"],
            _STATE_1D,
            (
                "t,a_1,a_2,b_1,b_2,b_3,H,lambda_1,lambda_2,lambda_3\n"
                "0.0,0.5,0.3,0.1,0.0,-0.2,1.46,-0.5914611189303556,-0.11441297378477057,0.605874092715126\n"
                "0.01,0.4994797818307594,0.2994026974879749,0.10499486692783343,-0.0031984537514614447,"
                "-0.20179641317637198,1.4600000000000006,-0.5914611189303557,-0.11441297378477058,0.6058740927151263\n"
                "0.02,0.4989192605964599,0.29881077901443087,0.10997893758358718,-0.006393232365241454,"
                "-0.20358570521834574,1.4600000000000006,-0.5914611189303557,-0.11441297378477065,0.6058740927151263\n"
            ),
            "",
        ),
        "simulate-pseudo": (
            ["simulate-pseudo", "--t-final", "1", "--dt", "0.5"],
            {
                "n": 3,
                "N": 2,
                "components": [
                    {"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]},
                    {"k": 1, "ell": 2, "lambdas": [0.3, 0.9], "masses_tilde": [0.5, 0.5]},
                ],
            },
            (
                "t,H_total,rt2_k0_l1_j1,rt2_k0_l1_j2,rt2_k1_l2_j1,rt2_k1_l2_j2\n"
                "0.0,3.4534000000000002,0.25,0.75,0.5,0.5\n"
                "0.5,3.4534000000000002,0.4137189778658777,0.5862810221341224,0.6726070170677605,0.32739298293223956\n"
                "1.0,3.4534000000000002,0.5990210269638426,0.4009789730361573,0.8084546514385326,0.19154534856146746\n"
            ),
            "",
        ),
        "transform-eval": (
            ["transform-eval"],
            {"measure": _MEASURE_3, "theta": [0.6, 0.0, 0.8], "zetas": [[2.0, 0.5], [-1.5, -0.2]]},
            (
                "zeta_re,zeta_im,value_re,value_im\n"
                "2.0,0.5,0.5743593431690494,-0.12393904039376281\n"
                "-1.5,-0.2,1.5201111294722554,-0.3228499487158903\n"
            ),
            "",
        ),
        "nevanlinna-check-1d": (
            ["nevanlinna-check"],
            {
                "kind": "1d",
                "measure": {"atoms": [-2.5, -2.0, 2.0, 2.5], "weights": [0.25, 0.25, 0.25, 0.25]},
                "N": 1,
                "y": [10.0, 100.0, 1000.0],
            },
            "y,residual\n10.0,0.2607466063348416\n100.0,0.0027515851872867343\n1000.0,2.7531095930578434e-05\n",
            "",
        ),
        "nevanlinna-check-multi": (
            ["nevanlinna-check"],
            {"kind": "multi", "measure": _MEASURE_3, "k": 0, "ell": 1, "N": 1, "zeta_abs": [4.0, 8.0, 16.0]},
            (
                "zeta_abs,residual\n"
                "4.0,0.007351615942970456\n"
                "8.0,0.001838711737037216\n"
                "16.0,0.0004596905642158774\n"
            ),
            "",
        ),
        "iso-flow": (
            ["iso-flow"],
            {"measure": _MEASURE_3, "t_grid": [0.0, 1.0, 2.0]},
            (
                "t,S_k0_l1,S_k1_l3\n"
                "0.0,1.5,5.0\n"
                "1.0,0.7297969417565979,2.0396750659766862\n"
                "2.0,0.47743588370726076,1.1006569007045863\n"
            ),
            "monotone=True max_increase=0.0 max_derivative_residual=8.881784197001252e-16\n",
        ),
        "transform-eval-ragged": (
            ["transform-eval"],
            {"measure": _MEASURE_RAGGED_2, "theta": [0.6, 0.8], "zetas": [[1.2, 0.4], [-0.3, 1.1], [2.5, -1.5]]},
            (
                "zeta_re,zeta_im,value_re,value_im\n"
                "1.2,0.4,2.332819163141011,-1.4506053981213258\n"
                "-0.3,1.1,1.5726252830826088,1.4724210491488006\n"
                "2.5,-1.5,0.672864780192697,0.535038163377828\n"
            ),
            "",
        ),
        # zeta^{1-k} of k = 17 is below the doubles at both points: the value is 1/zeta
        "transform-eval-far": (
            ["transform-eval"],
            {
                "measure": {
                    "n": 3,
                    "k_max": 17,
                    "components": [{"k": k, "ell": 1, "atoms": [0.5], "weights": [1.0]} for k in (0, 4, 17)],
                },
                "theta": [0.0, 0.0, 1.0],
                "zetas": [[2e19, 0.0], [1e40, 1e40]],
            },
            "zeta_re,zeta_im,value_re,value_im\n2e+19,0.0,5e-20,0.0\n1e+40,1e+40,5e-41,-5e-41\n",
            "",
        ),
        "iso-flow-ragged": (
            ["iso-flow"],
            {"measure": _MEASURE_RAGGED_3, "t_grid": [0.0, 0.5, 1.5, 4.0]},
            (
                "t,S_k0_l1,S_k1_l1,S_k1_l3,S_k2_l4\n"
                "0.0,0.55,3.7673589541583525,9.454001367229075,2.6698563600864627\n"
                "0.5,0.27030924580629784,2.128278717842502,5.308853838019995,1.7247021789099897\n"
                "1.5,0.10586731626671982,1.0950850449557634,2.667461543438254,1.018582164552777\n"
                "4.0,0.02826179294326708,0.40753012050189247,0.9669977826540996,0.48970917577019324\n"
            ),
            "monotone=True max_increase=0.0 max_derivative_residual=1.7763568394002505e-15\n",
        ),
        # the table goes to stdout and to --output; the input is not read
        "verify-all": (["verify-all"], {}, _VERIFY_ALL_TABLE, _VERIFY_ALL_TABLE),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes(self, tmp_path, capsys, case):
        argv, config, csv, stdout = self.CASES[case]
        out = tmp_path / "out.csv"
        code = main([argv[0], "--input", write_json(tmp_path / "in.json", config), "--output", str(out), *argv[1:]])
        assert code == 0
        assert out.read_text() == csv
        assert capsys.readouterr().out == stdout


# --t-final and --dt from every double: NaN, infinities, zeros, subnormals
# and negatives included
_TIMES = st.floats(allow_nan=True, allow_infinity=True)
_PSEUDO_STATE = {
    "n": 3,
    "components": [{"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]}],
}


class TestTimeArguments:
    """The time grid 0, dt, ..., round(t_final/dt) dt of the commands that
    sample one.  Both times must be positive and finite, the grid's last time
    finite, and its rows times its width (lattice sites, or atoms of a pseudo
    state) at most `cli._MAX_CELLS`; anything else is a configuration error,
    found before a row is allocated or stepped."""

    CONFIGS = {"simulate-1d": (_STATE_1D, 3), "spectral-solve": (_STATE_1D, 3), "simulate-pseudo": (_PSEUDO_STATE, 2)}

    @pytest.mark.parametrize("command", ["simulate-1d", "spectral-solve", "simulate-pseudo"])
    @pytest.mark.parametrize(
        "times",
        [
            ["--t-final", "nan"],
            ["--dt", "nan"],
            ["--t-final", "1e300"],
            ["--dt", "1e-300"],
            ["--t-final", "inf"],
            ["--dt", "inf"],
            ["--t-final=-inf"],
            ["--dt", "0"],
            ["--t-final", "1e3", "--dt", "1e-4"],
            ["--t-final", "1.5e308", "--dt", "1e308"],
        ],
    )
    def test_refused_at_the_real_cap(self, command, times):
        code, err = run_in_process([command, *times], self.CONFIGS[command][0])
        assert code == 2 and err.startswith("config error: ") and "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(list(CONFIGS)), t_final=_TIMES, dt=_TIMES)
    def test_exit_code_contract(self, command, t_final, dt):
        # a cap of 64 cells keeps every grid that passes tiny
        config, width = self.CONFIGS[command]
        with mock.patch.object(cli, "_MAX_CELLS", 64):
            code, err = run_in_process([command, f"--t-final={t_final!r}", f"--dt={dt!r}"], config)
        assert "Traceback" not in err
        steps = t_final / dt if 0.0 < t_final < math.inf and 0.0 < dt < math.inf else math.inf
        if steps < 64 and (round(steps) + 1) * width <= 64 and round(steps) * dt < math.inf:
            assert code in (0, 3) and (err == "" or err.startswith("numeric failure: "))
        else:
            assert code == 2 and err.startswith("config error: ")


class TestIntegerIndices:
    """A component index (k, ell), the dimension n, k_max and a truncation
    order N must be JSON integers: 1e999 (read as inf), 1.7, 1.0 and true are
    configuration errors, not truncated."""

    MEASURE = {"n": 3, "k_max": 1, "components": [{"k": "K", "ell": "L", "atoms": [0.5], "weights": [1.0]}]}
    CONFIGS = {
        "transform-eval": {"measure": MEASURE, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.0]]},
        "nevanlinna-check": {"kind": "multi", "measure": MEASURE, "k": 1, "ell": 1, "N": 1, "zeta_abs": [4.0]},
        "nevanlinna-check-target": {
            "kind": "multi",
            "measure": dict(MEASURE, components=[{"k": 1, "ell": 1, "atoms": [0.5], "weights": [1.0]}]),
            "k": "K",
            "ell": "L",
            "N": 1,
            "zeta_abs": [4.0],
        },
        "iso-flow": {"measure": MEASURE, "t_grid": [0.0, 1.0]},
        "simulate-pseudo": {
            "n": 3,
            "components": [{"k": "K", "ell": "L", "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]}],
        },
    }

    @pytest.mark.parametrize("value", ["1e999", "1.7", "1.0", "true"])
    @pytest.mark.parametrize("field", ["k", "ell"])
    @pytest.mark.parametrize("case", list(CONFIGS))
    def test_non_integer_index(self, tmp_path, capsys, case, field, value):
        text = json.dumps(self.CONFIGS[case]).replace('"K"', value if field == "k" else "1")
        text = text.replace('"L"', value if field == "ell" else "1")
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main([case.removesuffix("-target"), "--input", str(path), "--t-final", "1", "--dt", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{field} must be an integer, got " in err

    @pytest.mark.parametrize("case", list(CONFIGS))
    def test_integer_index(self, tmp_path, capsys, case):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(self.CONFIGS[case]).replace('"K"', "1").replace('"L"', "1"))
        assert main([case.removesuffix("-target"), "--input", str(path), "--t-final", "1", "--dt", "0.5"]) == 0


def _path_to_x(value, path=()):
    # the keys and list indices that lead to the string "X" in `value`, or None
    if value == "X":
        return path
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, entry in items:
        found = _path_to_x(entry, (*path, key))
        if found is not None:
            return found
    return None


class TestFloatFields:
    """Every float field read from JSON holds JSON numbers only: true and
    "2.5" are configuration errors that name the field, not read as 1.0 and
    2.5.  Each config holds "X" where one value of the field goes."""

    MEASURE = {"n": 3, "k_max": 1, "components": [{"k": 0, "ell": 1, "atoms": [0.5], "weights": [1.0]}]}
    MEASURE_1D = {"atoms": [-2.0, 2.0], "weights": [0.5, 0.5]}
    PSEUDO = {"n": 3, "components": [{"k": 0, "ell": 1, "lambdas": [0.5, 1.0], "masses_tilde": [0.25, 0.75]}]}
    TRANSFORM = {"measure": MEASURE, "theta": [0.0, 0.0, 1.0], "zetas": [[2.0, 0.5]]}
    # (field, command, config with "X", a number that takes its place and exits 0)
    CASES = [
        ("a", "simulate-1d", {"a": [0.5, "X"], "b": [0.1, 0.0, -0.2]}, "0.3"),
        ("b", "spectral-solve", {"a": [0.5, 0.3], "b": [0.1, "X", -0.2]}, "0"),
        ("t", "simulate-pseudo", dict(PSEUDO, t="X"), "0.5"),
        ("lambdas", "simulate-pseudo", json.loads(json.dumps(PSEUDO).replace("0.5,", '"X",')), "0.5"),
        ("masses_tilde", "simulate-pseudo", json.loads(json.dumps(PSEUDO).replace("0.25", '"X"')), "0.25"),
        ("theta", "transform-eval", dict(TRANSFORM, theta=[0.0, 0.0, "X"]), "1"),
        ("zetas", "transform-eval", dict(TRANSFORM, zetas=[[2.0, "X"]]), "0.5"),
        ("atoms", "transform-eval", json.loads(json.dumps(TRANSFORM).replace("[0.5]", '["X"]')), "0.5"),
        ("weights", "iso-flow", {"measure": json.loads(json.dumps(MEASURE).replace("[1.0]", '["X"]')), "t_grid": [0.0, 1.0]}, "1"),
        ("t_grid", "iso-flow", {"measure": MEASURE, "t_grid": [0.0, "X"]}, "1"),
        ("y", "nevanlinna-check", {"kind": "1d", "measure": MEASURE_1D, "N": 1, "y": [10.0, "X"]}, "100"),
        ("atoms", "nevanlinna-check", {"kind": "1d", "measure": dict(MEASURE_1D, atoms=["X", 2]), "N": 1, "y": [10]}, "-2"),
        (
            "zeta_abs",
            "nevanlinna-check",
            {"kind": "multi", "measure": MEASURE, "k": 0, "ell": 1, "N": 1, "zeta_abs": ["X", 8.0]},
            "4",
        ),
    ]
    IDS = [f"{command}-{field}" for field, command, _, _ in CASES]

    def run(self, tmp_path, case, value):
        _, command, config, _ = case
        path = tmp_path / "in.json"
        path.write_text(json.dumps(config).replace('"X"', value))
        argv = [command, "--input", str(path), "--output", str(tmp_path / "out.csv"), "--t-final", "1", "--dt", "0.5"]
        return main(argv)

    @pytest.mark.parametrize("value", ["true", '"2.5"'])
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_non_number(self, tmp_path, capsys, case, value):
        # a list field names the entry by its index, such as zetas[0][1]
        field, _, config, _ = case
        path = _path_to_x(config)
        index = "".join(f"[{i}]" for i in path[path.index(field) + 1 :])
        assert self.run(tmp_path, case, value) == 2
        err = capsys.readouterr().err
        shown = "True" if value == "true" else "'2.5'"
        named = f"{field}{index} = {shown}" if index else shown
        assert err.startswith("config error: ") and f"{field} must hold JSON numbers only, got {named}\n" in err

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_number(self, tmp_path, capsys, case):
        assert self.run(tmp_path, case, case[3]) == 0

    @pytest.mark.parametrize("command", ["simulate-1d", "spectral-solve"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"a": [[0.5, 0.25]], "b": [0.0, 0.0, 0.0]}, "a must be a 1-d array, got shape (1, 2)"),
            ({"a": [[0.5], [0.25]], "b": [0.0, 0.0, 0.0]}, "a must be a 1-d array, got shape (2, 1)"),
            ({"a": [0.5, 0.25], "b": [[0.0, 0.0, 0.0]]}, "b must be a 1-d array, got shape (1, 3)"),
        ],
        ids=["a-row", "a-column", "b-row"],
    )
    def test_nested_lattice_field(self, command, config, message):
        # a list of lists is refused, not flattened
        assert run_in_process([command], config) == (2, f"config error: bad 1-d state: {message}\n")

    MULTI = {"kind": "multi", "measure": MEASURE, "k": 0, "ell": 1, "N": 1}

    @pytest.mark.parametrize(
        "command, config, field, stage",
        [
            ("transform-eval", dict(TRANSFORM, zetas=[2.0, 0.0]), "zetas", "bad transform-eval config"),
            ("transform-eval", dict(TRANSFORM, zetas=[[2.0, 0.0, 1.0]]), "zetas", "bad transform-eval config"),
            ("transform-eval", dict(TRANSFORM, zetas=2.0), "zetas", "bad transform-eval config"),
            ("nevanlinna-check", {"kind": "1d", "measure": MEASURE_1D, "N": 1, "y": [[10.0, 100.0]]}, "y", "bad nevanlinna config"),
            ("nevanlinna-check", dict(MULTI, zeta_abs=[[4.0, 8.0]]), "zeta_abs", "bad nevanlinna config"),
            ("iso-flow", {"measure": MEASURE, "t_grid": [[0.0, 1.0]]}, "t_grid", "bad iso-flow config"),
            ("iso-flow", {"measure": MEASURE, "t_grid": 1.0}, "t_grid", "bad iso-flow config"),
            ("iso-flow", {"measure": MEASURE, "t_grid": [0.0, float("nan")]}, "t_grid", "bad iso-flow config"),
            ("iso-flow", {"measure": MEASURE, "t_grid": [0.0]}, "t_grid", "bad iso-flow config"),
            ("iso-flow", {"measure": MEASURE, "t_grid": [-1.0, 1.0]}, "t_grid", "bad iso-flow config"),
            ("simulate-pseudo", dict(PSEUDO, t=[0.0]), "t", "bad pseudo state"),
        ],
        ids=[
            "zetas-one-pair-unnested",
            "zetas-triple",
            "zetas-number",
            "y-nested",
            "zeta_abs-nested",
            "t_grid-nested",
            "t_grid-number",
            "t_grid-nan",
            "t_grid-one-time",
            "t_grid-negative",
            "t-list",
        ],
    )
    def test_wrong_shape(self, command, config, field, stage):
        # each message starts with its stage and the field it names
        code, err = run_in_process([command], config)
        assert code == 2 and err.startswith(f"config error: {stage}: {field} "), err

    @pytest.mark.parametrize(
        "field, config",
        [("y", {"kind": "1d", "measure": MEASURE_1D, "N": 1}), ("zeta_abs", MULTI)],
    )
    def test_bare_number_is_one_point(self, tmp_path, field, config):
        # the reading of every 1-d float field: a bare number is one entry
        tables = []
        for value in (10.0, [10.0]):
            path = write_json(tmp_path / "in.json", dict(config, **{field: value}))
            assert main(["nevanlinna-check", "--input", path, "--output", str(tmp_path / "out.csv")]) == 0
            tables.append((tmp_path / "out.csv").read_text())
        assert tables[0] == tables[1] and tables[0].startswith(f"{field},residual\n10.0,")


class TestHalfLine:
    @staticmethod
    def run(atoms, half_line):
        measure = {"atoms": atoms, "weights": [0.5, 0.5], "half_line": half_line}
        return run_in_process(["nevanlinna-check"], {"kind": "1d", "measure": measure, "N": 1, "y": [10.0, 100.0, 1000.0]})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean(self, value):
        code, err = self.run([-0.5, 2.0], value)
        assert code == 2 and err == f"config error: bad measure: half_line must be true or false, got {value!r}\n"

    @pytest.mark.parametrize("atoms, value", [([-0.5, 2.0], False), ([0.5, 2.0], True)])
    def test_boolean(self, atoms, value):
        assert self.run(atoms, value) == (0, "")


class TestVerifyAll:
    TABLE = [
        ("sphere-orthonormality", 1e-10),
        ("sphere-addition-theorem", 1e-10),
        ("moment-inverse-roundtrip", 1e-10),
        ("moment-cf-resolvent-eigen", 1e-11),
        ("moment-nevanlinna-decay", 1e-3),
        ("toda-isospectral-rk4", 1e-8),
        ("toda-energy-conservation", 1e-8),
        ("toda-trace-identity", 1e-12),
        ("toda-spectral-vs-rk4", 1e-6),
        ("toda-closed-form-n2", 1e-6),
        ("kdq-kernel-series-vs-closed", 1e-10),
        ("kdq-cauchy-reproduction", 1e-8),
        ("kdq-multi-nevanlinna", 1e-4),
        ("pseudo-normalization", 1e-12),
        ("pseudo-hamiltonian-constant", 1e-12),
        ("pseudo-ode-residual", 1e-6),
        ("pseudo-growth-c-d-one", 1e-12),
        ("iso-monotonicity", 1e-8),
    ]

    def test_runs_clean(self, capsys):
        assert main(["verify-all"]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines]
        assert [(name, float(tol.removeprefix("tol="))) for _, name, _, tol in rows] == self.TABLE
        assert all(status == "PASS" for status, *_ in rows)
        assert summary == "18/18 checks passed"

    def test_output_file_holds_the_table(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert main(["verify-all", "--output", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_module_entry_point_runs_without_warnings(self):
        # the package does not import cli, so runpy executes it fresh
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "toda_kdq.cli", "verify-all"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        assert proc.stderr == b""


class TestNumpyOnlyRuntime:
    def test_cli_runs_without_scipy(self):
        # scipy is a test dependency only: the CLI neither imports it nor
        # pulls it in while it runs
        code = (
            "import sys\n"
            "import toda_kdq.cli as cli\n"
            "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded(), loaded()\n"
            "status = cli.main(['verify-all'])\n"
            "assert not loaded(), loaded()\n"
            "sys.exit(status)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
