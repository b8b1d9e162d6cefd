"""Every layer is registered when `toda_kdq.cli` is imported, every name in
a layer's `__all__` is an attribute of that layer, and a command runs the
code of only the layers it uses.

perfbench's tracer (`perfbench/spans.py`) looks up these eight modules in
`sys.modules` and wraps each `__all__` entry through `getattr`, so a layer
missing from `sys.modules` or a stale entry would crash a traced benchmark
run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("cli", "verify", "sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow")
# the layers that a 1-d lattice command neither compiles nor runs
QUADRIC = ("kdq", "sphere", "pseudo_toda", "iso_flow", "verify")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"toda_kdq.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def layers_after(tmp_path, argv=None) -> dict:
    """In a fresh interpreter, import `toda_kdq.cli` and, if `argv` is given,
    run `main(argv)`; then map each layer registered in `sys.modules` to
    whether its code has run.  An unloaded layer is a lazy module, whose
    type is not `types.ModuleType` (`module.__class__` would load it)."""
    code = (
        "import json, sys, types\n"
        "import toda_kdq.cli as cli\n"
        f"assert {argv!r} is None or cli.main({argv!r}) == 0\n"
        "layers = {name.split('.')[1]: type(mod) is types.ModuleType\n"
        "          for name, mod in list(sys.modules.items()) if name.startswith('toda_kdq.')}\n"
        "print(json.dumps(layers))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]
    return json.loads(proc.stdout.splitlines()[-1])  # after any table the command prints


def test_import_registers_every_layer(tmp_path):
    layers = layers_after(tmp_path)
    assert [layer for layer in LAYERS if layer not in layers] == []
    assert [layer for layer in QUADRIC if layers[layer]] == []
    assert layers["cli"] and layers["moment_1d"] and layers["toda_1d"]


@pytest.mark.parametrize("command", ["simulate-1d", "spectral-solve"])
def test_a_lattice_command_leaves_the_quadric_layers_unloaded(tmp_path, command):
    (tmp_path / "in.json").write_text(json.dumps({"a": [0.5], "b": [0.0, 0.0]}))
    argv = [command, "--input", "in.json", "--output", "out.csv", "--t-final", "0.01"]
    layers = layers_after(tmp_path, argv)
    assert [layer for layer in QUADRIC if layers[layer]] == []
    assert (tmp_path / "out.csv").read_text().startswith("t,")


def test_verify_all_loads_every_layer(tmp_path):
    layers = layers_after(tmp_path, ["verify-all", "--output", "table.txt"])
    assert [layer for layer in LAYERS if not layers[layer]] == []
