"""Every layer is registered when `toda_kdq.cli` is imported, every name in
a layer's `__all__` is an attribute of that layer and is reached by a
command, a check or a bench case, a command runs the code of only the
layers it uses, and the JSON config format is read in `cli` alone.

perfbench's tracer (`perfbench/spans.py`) looks up these eight modules in
`sys.modules` and wraps each `__all__` entry through `getattr`, so a layer
missing from `sys.modules` or a stale entry would crash a traced benchmark
run.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

LAYERS = ("cli", "verify", "sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow")
# the layers that a 1-d lattice command neither compiles nor runs
QUADRIC = ("kdq", "sphere", "pseudo_toda", "iso_flow", "verify")
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# public names that no command, check or bench case reaches yet, each with
# the ROADMAP item that gives it a caller or states why it stays
KEPT = {
    "moment_1d.moments": "item 3: the 1-d moment residual through the transform path",
    "kdq.divergent_partial_sums": "item 3: the quadric moment residual through the transform path",
    "kdq.hua_tail_bound": "item 1: the kernel tail-bound trace gauge",
    "pseudo_toda.physical_surfaces": "item 4: a verify-all line for the paper's surfaces",
    "pseudo_toda.PhysicalSurface": "item 4: a verify-all line for the paper's surfaces",
}
# the readers of the JSON config format, defined in cli.py alone, and the
# dict converters that the numeric layers no longer have
CONFIG_READERS = (
    "_json_field",
    "_json_int",
    "_json_float",
    "_JSON_NUMBERS",
    "_read_1d_measure",
    "_read_measure",
    "_read_pseudo_state",
    "_read_components",
    "_columns",
    "_read_entry",
)
DICT_CONVERTERS = ("from_dict", "to_dict", "_write_components")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"toda_kdq.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@functools.cache
def reference_graph() -> tuple:
    """The references of `src/toda_kdq/*.py` and `bench/run.py`, from their
    ASTs: per owner, the (layer, name) pairs its code refers to and the
    attribute names it reads; and per class, its methods.  An owner is
    (file, None) for module-level code and all of `bench/run.py`, (layer,
    name) for a top-level function or class, and (layer, "Class.method") for
    a method.  A name counts in its own layer's code, by `from .layer import`
    in another's, or as `layer.name` (`tk.layer.name` in bench/run.py); so
    `pseudo_toda.state_to_measure` is not `iso_flow.state_to_measure`.
    Docstrings and `__all__` are strings, and no reference; neither is a
    name inside its own definition.  Last, per file, the names it defines:
    functions and classes at any depth, and module-level assignments."""
    edges, reads, methods, defined = defaultdict(set), defaultdict(set), {}, defaultdict(set)
    files = {path.stem: path for path in sorted((SRC / "toda_kdq").glob("*.py"))}
    files["bench"] = ROOT / "bench" / "run.py"
    for file, path in files.items():
        tree = ast.parse(path.read_text())
        names, modules = {}, {}  # local name -> (layer, name), local name -> layer
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        top = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined[file] = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined[file] |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}

        def target(node):
            if isinstance(node, ast.Name):
                return names.get(node.id, (file, node.id) if node.id in top else None)
            if isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in modules:
                    return modules[base.id], node.attr
                if isinstance(base, ast.Attribute) and base.attr in LAYERS:
                    return base.attr, node.attr
            return None

        def visit(node, owner):
            ref = target(node)
            if ref is not None and ref != owner:
                edges[owner].add(ref)
            if isinstance(node, ast.Attribute) and node.attr != (owner[1] or "").rpartition(".")[2]:
                reads[owner].add(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        for node in tree.body:
            if file == "bench" or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                visit(node, (file, None))
            elif isinstance(node, ast.FunctionDef):
                visit(node, (file, node.name))
            else:
                methods[file, node.name] = []
                for item in node.body:
                    owner = (file, node.name)  # a class attribute's code counts for the class
                    if isinstance(item, ast.FunctionDef):
                        owner = (file, f"{node.name}.{item.name}")
                        methods[file, node.name].append(owner)
                    visit(item, owner)
                for item in node.decorator_list + node.bases:
                    visit(item, (file, node.name))
    return edges, reads, methods, defined


@functools.cache
def reached() -> frozenset:
    """"layer.name" and "layer.Class.method" of everything reached from
    module-level code and bench/run.py: a definition that reached code
    refers to, and a method of a reached class that is special (`__init__`)
    or whose name reached code reads as an attribute."""
    edges, reads, methods, _ = reference_graph()
    done = {owner for owner in list(edges) + list(reads) if owner[1] is None}
    read = set()
    while True:
        size = len(done)
        for owner in list(done):
            done |= edges.get(owner, set())
            read |= reads.get(owner, set())
        for cls, owners in methods.items():
            if cls in done:
                done.update(m for m in owners if m[1].rpartition(".")[2] in read or m[1].endswith("__"))
        if len(done) == size:
            return frozenset(f"{layer}.{name}" for layer, name in done if name is not None)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_is_reached(layer):
    # each `__all__` name, and each public method of such a class, is reached
    # by a command, a check or a bench case, or is KEPT; a KEPT name that
    # gained a caller, or is gone, leaves KEPT
    exported = importlib.import_module(f"toda_kdq.{layer}").__all__
    methods = reference_graph()[2]
    public = [f"{layer}.{name}" for name in exported]
    public += [
        f"{layer}.{method}"
        for name in exported
        for _, method in methods.get((layer, name), [])
        if not method.rpartition(".")[2].startswith("_")
    ]
    assert [name for name in public if name not in reached() and name not in KEPT] == []
    assert [name for name in KEPT if name.startswith(f"{layer}.") and (name in reached() or name not in public)] == []


def test_the_config_format_is_read_in_cli_alone():
    # cli defines every config reader; no other file of src/ defines or
    # refers to one, and no file of src/ defines or reads a dict converter
    # (bench/run.py falls back to from_dict on an older tree)
    edges, reads, _, defined = reference_graph()
    assert set(CONFIG_READERS) <= defined["cli"]
    for file in defined.keys() - {"bench"}:
        banned = set(DICT_CONVERTERS) | (set() if file == "cli" else set(CONFIG_READERS))
        owners = [owner for owner in edges.keys() | reads.keys() if owner[0] == file]
        used = {name for owner in owners for _, name in edges.get(owner, ())} | {name for owner in owners for name in reads.get(owner, ())}
        assert not banned & (defined[file] | used), file


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
