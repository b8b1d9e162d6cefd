"""The layer-curve harness `bench/run.py`: its cases run on this tree, and a
second tree loads as its own package."""

import importlib.util
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import toda_kdq
import toda_kdq.cli  # noqa: F401  (the harness's cases reach cli through the package)
from toda_kdq.moment_1d import JacobiMatrix

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_on_src(bench):
    # a name of src/ that a case needs and that is renamed or deleted fails here
    for build, params in bench.CASES:
        build(toda_kdq, **params)()


def test_a_fresh_process_compiles_into_an_empty_cache_of_its_own(bench, monkeypatch):
    # each fresh-process op runs with a bytecode cache of its own, empty
    # before its first call, whatever __pycache__ the tree holds
    seen, real = [], subprocess.run

    def run(argv, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, list(cache.iterdir()), "PYTHONDONTWRITEBYTECODE" in env))
        return real(argv, env=env, **kwargs)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench.subprocess, "run", run)
    ops = [bench.import_toda_kdq_cli(toda_kdq), bench.cli_process(toda_kdq, "simulate-1d")]
    for op in ops:
        op()
    assert [(contents, unset) for _, contents, unset in seen] == [([], False), ([], False)]
    assert seen[0][0] != seen[1][0]
    for cache, _, _ in seen:
        assert any(path.parent.name == "toda_kdq" for path in cache.rglob("*.pyc"))


def test_a_second_load_is_a_package_of_its_own(bench, tmp_path):
    shutil.copytree(ROOT / "src" / "toda_kdq", tmp_path / "toda_kdq", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        second = bench.load("toda_kdq_second", tmp_path)
        for name in ("cli", "iso_flow", "kdq", "moment_1d", "pseudo_toda", "sphere", "toda_1d", "verify"):
            module = getattr(second, name)
            assert module is not getattr(toda_kdq, name)
            assert module.__name__ == f"toda_kdq_second.{name}"
            assert Path(module.__file__).resolve().is_relative_to(tmp_path.resolve())
        assert second.toda_1d.JacobiMatrix is second.moment_1d.JacobiMatrix is not JacobiMatrix
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "toda_kdq_second"]:
            del sys.modules[name]


def test_a_case_is_absent_on_a_tree_that_lacks_its_name(bench):
    state = JacobiMatrix(offdiag=[0.5], diag=[0.0, 0.0])

    def solve(tk):
        return lambda: tk.toda_1d.spectral_solve(state, [1.0])

    def step(tk):
        return lambda: tk.toda_1d.integrate_ensemble([state], 0.01)

    older = SimpleNamespace(toda_1d=SimpleNamespace(spectral_solve=toda_kdq.toda_1d.spectral_solve))
    solved, stepped = bench.measure([(solve, {}), (step, {})], {"this": toda_kdq, "against": older}, rounds=4)
    assert solved["curve"] == "solve" and solved["against"]["median_s"] > 0.0
    assert solved["ratio"]["pairs"] == 4 and 0 <= solved["ratio"]["wins"] <= 4
    assert stepped["against"] is None and "ratio" not in stepped
    assert stepped["this"]["median_s"] > 0.0


def test_a_short_op_is_sampled_over_many_calls(bench, monkeypatch):
    # every op counts as short against PRIME_S: a stall of the 2 ms op past the
    # real 10 ms bound would otherwise drop one untimed call
    monkeypatch.setattr(bench, "PRIME_S", math.inf)
    calls = {"short": 0, "long": 0}

    def count(name, pause):
        def op():
            calls[name] += 1
            time.sleep(pause)

        return lambda tk: op

    cases = [(count("short", 0.0), {}), (count("long", 2 * bench.MIN_SAMPLE_S), {})]
    short, long = bench.measure(cases, {"this": toda_kdq}, rounds=4)
    # a sample of the short op lasts MIN_SAMPLE_S; every sample records seconds per call
    assert short["calls_per_sample"] > 1 and long["calls_per_sample"] == 1
    assert short["this"]["median_s"] * short["calls_per_sample"] >= bench.MIN_SAMPLE_S / 2
    # the warm-up call, three calls to size a sample, the samples, and one
    # untimed call before every sample but the first
    primes = 3
    assert calls["short"] == 1 + 3 + 4 * short["calls_per_sample"] + primes
    assert calls["long"] == 1 + 3 + 4 + primes
