"""Acceptance battery: one test per criterion, each printing its PASS/FAIL lines.

The invariants are computed by the checks in `toda_kdq.verify`, the same
ones `verify-all` runs; this module holds only the battery's seeds, sizes
and runtime budgets.  Run with `pytest tests/test_acceptance.py -v -s` to see
each observed value next to its pinned tolerance.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toda_kdq import verify


def assert_passed(results) -> None:
    for r in results:
        print(r.line())
    for r in results:
        assert r.passed, r.line()


@pytest.fixture(scope="module")
def toda_ensemble():
    """20 random states with N in 2..8, integrated on [0, 5] at dt = 1e-3."""
    t_start = time.perf_counter()
    entries = verify.toda_ensemble(12345, [2 + i % 7 for i in range(20)], 5.0)
    return entries, time.perf_counter() - t_start


@pytest.fixture(scope="module")
def toda_lax(toda_ensemble):
    entries, _ = toda_ensemble
    t_start = time.perf_counter()
    results = verify.check_toda_lax(entries)
    return {r.name: r for r in results}, time.perf_counter() - t_start


def test_sphere_harmonics():
    assert_passed(
        verify.check_sphere_orthonormality(k_max=8)
        + verify.check_sphere_addition(5555, n_dirs=50, k_max=12)
    )


def test_criterion_01_isospectrality(toda_ensemble, toda_lax):
    results, lax_seconds = toda_lax
    runtime = toda_ensemble[1] + lax_seconds
    print(f"runtime {runtime:.2f} s (budget 10 s)")
    assert_passed([results["toda-isospectral-rk4"]])
    assert runtime < 10.0


def test_criterion_02_method_equivalence(toda_ensemble):
    entries, _ = toda_ensemble
    assert_passed(verify.check_toda_spectral(entries, closed_t_final=5.0, closed_dt=1e-3))


def test_criterion_03_energy_trace(toda_lax):
    results, _ = toda_lax
    assert_passed([results["toda-energy-conservation"], results["toda-trace-identity"]])


def test_criterion_04_triple_agreement():
    assert_passed(verify.check_moment_triple(777, trials=50))


def test_criterion_05_inverse_spectral_roundtrip():
    assert_passed(verify.check_moment_roundtrip(888, sizes=range(2, 11)))


def test_criterion_06_hamburger_nevanlinna():
    assert_passed(verify.check_moment_nevanlinna(999, n_measures=5))


def test_criterion_07_hua_kernel():
    assert_passed(verify.check_kdq_kernel(1111, trials=50))


def test_criterion_08_cauchy_reproduction():
    assert_passed(verify.check_kdq_cauchy(2222, k_max=4, j_max=3))


def test_criterion_09_pseudo_toda():
    assert_passed(verify.check_pseudo_toda(3333, ode_times=(0.0, 1.0)))


def test_criterion_10_multi_nevanlinna():
    assert_passed(verify.check_kdq_multi_nevanlinna())


def test_criterion_11_iso_monotonicity():
    assert_passed(verify.check_iso_monotonicity(4444, trials=20))


def test_criterion_12_cli_determinism():
    cmd = [sys.executable, "-m", "toda_kdq.cli", "verify-all"]
    # the child imports the package from this tree's src/, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t_start = time.perf_counter()
    run1 = subprocess.run(cmd, capture_output=True, env=env)
    run2 = subprocess.run(cmd, capture_output=True, env=env)
    runtime = time.perf_counter() - t_start
    print(f"verify-all twice: runtime {runtime:.2f} s (budget 60 s)")
    assert run1.returncode == 0 and run2.returncode == 0
    assert run1.stdout == run2.stdout
    assert runtime < 60.0
