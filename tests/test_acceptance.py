"""Acceptance battery: one test per entry of `toda_kdq.verify.CHECKS`, each printing its PASS/FAIL lines.

The entries are the checks that `verify-all` runs, each with its battery
keywords beside its `verify-all` ones; this module holds only the runtime
budgets, which lines of `check_toda` reproduce each of the paper's three
Toda criteria, and the rules every line keeps: no check runs on no input,
and a line over no sample or a NaN one fails.  Run with `pytest tests/test_acceptance.py -v -s` to see each
observed value next to its pinned tolerance.
"""

import functools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from toda_kdq import kdq, verify


def verify_all_keywords(check, **changes) -> dict:
    """The `verify-all` keywords of `check` in `verify.CHECKS`, with `changes` applied."""
    (keywords,) = [keywords for entry, keywords, _ in verify.CHECKS if entry is check]
    return {**keywords, **changes}


@functools.cache
def battery_run(check) -> tuple[dict, float]:
    """The lines of `check` at its battery keywords in `verify.CHECKS`, by name, and the runtime; run once."""
    (battery,) = [battery for entry, _, battery in verify.CHECKS if entry is check]
    t_start = time.perf_counter()
    results = check(**battery)
    return {r.name: r for r in results}, time.perf_counter() - t_start


def assert_passed(lines, names) -> None:
    for name in names:
        print(lines[name].line())
    for name in names:
        assert lines[name].passed, lines[name].line()


@pytest.mark.parametrize("check", [check for check, _, _ in verify.CHECKS], ids=lambda check: check.__name__)
def test_check_at_battery_keywords(check):
    lines, runtime = battery_run(check)
    assert_passed(lines, lines)
    print(f"runtime {runtime:.2f} s (budget 10 s)")
    assert runtime < 10.0


# the paper's three Toda claims, each by the lines of check_toda that reproduce it
def test_criterion_01_isospectrality():
    assert_passed(battery_run(verify.check_toda)[0], ["toda-isospectral-rk4"])


def test_criterion_02_method_equivalence():
    assert_passed(battery_run(verify.check_toda)[0], ["toda-spectral-vs-rk4", "toda-closed-form-n2"])


def test_criterion_03_energy_trace():
    assert_passed(battery_run(verify.check_toda)[0], ["toda-energy-conservation", "toda-trace-identity"])


def test_registry_lists_every_check_once_with_the_same_lines_at_both_sizes():
    # a check_* of verify left out of CHECKS is in neither verify-all nor the
    # battery; the battery runs the lines that verify-all prints, in its order
    defined = [name for name, value in vars(verify).items() if name.startswith("check_") and callable(value)]
    listed = [check.__name__ for check, _, _ in verify.CHECKS]
    assert sorted(listed) == sorted(defined) and len(set(listed)) == len(listed)
    for check, keywords, battery in verify.CHECKS:
        assert [r.name for r in check(**battery)] == [r.name for r in check(**keywords)], check.__name__


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


@pytest.mark.parametrize(
    "check, kwargs, message",
    [
        (verify.check_sphere_addition, {"seed": 1, "n_dirs": 0, "k_max": 3}, "n_dirs must be >= 1, got 0"),
        (verify.check_moment_roundtrip, {"seed": 1, "sizes": ()}, "sizes must not be empty"),
        (verify.check_moment_triple, {"seed": 1, "trials": 0}, "trials must be >= 1, got 0"),
        (verify.check_moment_nevanlinna, {"seed": 1, "n_measures": 0}, "n_measures must be >= 1, got 0"),
        (verify.check_pseudo_toda, {"seed": 1, "ode_times": ()}, "ode_times must not be empty"),
        (verify.check_iso_monotonicity, {"seed": 1, "trials": 0}, "trials must be >= 1, got 0"),
        (verify.check_toda, {"seed": 1, "sizes": (), "t_final": 1.0, "closed_t_final": 1.0, "closed_dt": 0.1}, "sizes must not be empty"),
    ],
    ids=lambda value: value.__name__ if callable(value) else None,
)
def test_checks_refuse_empty_inputs(check, kwargs, message):
    # a check over no samples would read 0.0 and pass on no data
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(**kwargs)


def test_result_reads_the_largest_modulus():
    # scalars and arrays of any shape, real and complex, in one line
    samples = [-0.5, np.array([[1.0, -2.0], [0.25, 0.0]]), 3.0 + 4.0j, np.array([1.5 - 2.0j]), np.empty(0)]
    assert verify._result("line", samples, 6.0) == verify.CheckResult("line", True, 5.0, 6.0)
    assert verify._result("line", samples, 4.0) == verify.CheckResult("line", False, 5.0, 4.0)
    assert not verify._result("line", samples, 6.0, holds=False).passed


def nan_valued(function, first_only):
    """`function` returning NaN of the shape of its values, or of the first of the pair it returns."""
    def nan(*args):
        out = function(*args)
        return (np.full_like(out[0], np.nan), *out[1:]) if first_only else np.full_like(out, np.nan)

    return nan


@pytest.mark.parametrize(
    "check, keywords, names, defect",
    [
        (verify.check_sphere_orthonormality, {"k_max": -1}, ["sphere-orthonormality"], None),
        (verify.check_moment_roundtrip, {}, ["moment-inverse-roundtrip"], (verify, "spectral_data_from_jacobi", True)),
        (verify.check_toda, {}, ["toda-isospectral-rk4", "toda-trace-identity"], (verify, "jacobi_eigenvalues", False)),
        (verify.check_kdq_kernel, {}, ["kdq-kernel-series-vs-closed"], (kdq, "hua_kernel", False)),
    ],
    ids=["sphere-no-degree", "moment-nan-eigenvalues", "toda-nan-eigenvalues", "kdq-nan-kernel"],
)
def test_a_line_over_no_sample_or_a_nan_fails(monkeypatch, check, keywords, names, defect):
    # Python's max never lets a NaN replace the running value, and an empty
    # Gram matrix has no entry: each line used to read 0.0 or a finite value and pass
    if defect is not None:
        owner, name, first_only = defect
        monkeypatch.setattr(owner, name, nan_valued(getattr(owner, name), first_only))
    lines = {r.name: r for r in check(**verify_all_keywords(check, **keywords))}
    for name in names:
        assert not lines[name].passed and np.isnan(lines[name].observed), lines[name].line()
