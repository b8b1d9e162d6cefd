"""Every layer is registered when `toda_kdq.cli` is imported, every name in
a layer's `__all__` is an attribute of that layer and is reached by a
command, a check or a bench case, every field of such a dataclass is read
by reached code, every keyword default of such a callable is left out by
some reached call, a command runs the code of only the layers it uses,
and the JSON config format is read in `cli` alone.

perfbench's tracer (`perfbench/spans.py`) looks up these eight modules in
`sys.modules` and wraps each `__all__` entry through `getattr`, so a layer
missing from `sys.modules` or a stale entry would crash a traced benchmark
run.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import FunctionType

import pytest

LAYERS = ("cli", "verify", "sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow")
# the layers that a 1-d lattice command neither compiles nor runs
QUADRIC = ("kdq", "sphere", "pseudo_toda", "iso_flow", "verify")
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# public names, dataclass fields ("layer.Class.field") and keyword defaults
# ("layer.name(param=)") that no command, check or bench case reaches, reads
# or leaves out yet, each with the ROADMAP item that gives it a caller or
# states why it stays
KEPT = {
    "moment_1d.moments": "item 5: the 1-d moment residual through the transform path",
    "kdq.divergent_partial_sums": "item 5: the quadric moment residual through the transform path",
    "kdq.hua_tail_bound": "item 2: the kernel tail-bound trace gauge",
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
    name inside its own definition.  Then, per file, the names it defines:
    functions and classes at any depth, and module-level assignments.  Last,
    per owner, its calls: (callee, positional count, keyword names), the
    count None where a `*args` or `**kwargs` hides what is passed.  A callee
    resolves as a reference does; else `obj.attr(...)` is the method call
    ("method", attr), unless obj is a module that `import` binds or an
    attribute of one (`itertools.compress`, `np.linalg.qr`)."""
    edges, reads, methods, defined, calls = defaultdict(set), defaultdict(set), {}, defaultdict(set), defaultdict(list)
    files = {path.stem: path for path in sorted((SRC / "toda_kdq").glob("*.py"))}
    files["bench"] = ROOT / "bench" / "run.py"
    for file, path in files.items():
        tree = ast.parse(path.read_text())
        names, modules = {}, {}  # local name -> (layer, name), local name -> layer
        imported = set()  # the local names of `import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
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

        def callee(func):
            ref = target(func)
            if ref is None and isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in imported):
                    ref = ("method", func.attr)
            return ref

        def visit(node, owner):
            ref = target(node)
            if ref is not None and ref != owner:
                edges[owner].add(ref)
            called = callee(node.func) if isinstance(node, ast.Call) else None
            if called is not None:
                hidden = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                calls[owner].append((called, None if hidden else len(node.args), {k.arg for k in node.keywords}))
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
    return edges, reads, methods, defined, calls


@functools.cache
def reached() -> frozenset:
    """"layer.name" and "layer.Class.method" of everything reached from
    module-level code and bench/run.py: a definition that reached code
    refers to, and a method of a reached class that is special (`__init__`)
    or whose name reached code reads as an attribute."""
    edges, reads, methods, *_ = reference_graph()
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


def public_fields(layer) -> list:
    """"layer.Class.field" of each field of a dataclass in the layer's `__all__`."""
    mod = importlib.import_module(f"toda_kdq.{layer}")
    classes = [getattr(mod, name) for name in mod.__all__]
    return [f"{layer}.{cls.__name__}.{field.name}" for cls in classes if dataclasses.is_dataclass(cls) for field in dataclasses.fields(cls)]


def public_defaults(layer) -> dict:
    """"layer.name(param=)" of each parameter with a default of a callable in
    the layer's `__all__` (a function, or a class: its constructor, dataclass
    fields included, and each public method as "layer.Class.method(param=)"),
    mapped to (callee as `reference_graph` resolves it, position, name); the
    position, not counting self or cls, is None for a keyword-only one."""
    mod = importlib.import_module(f"toda_kdq.{layer}")
    found = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        found.append((name, (layer, name), list(inspect.signature(obj).parameters.values())))
        for attr, value in vars(obj).items() if isinstance(obj, type) else ():
            if not attr.startswith("_") and isinstance(value, (FunctionType, classmethod, staticmethod)):
                params = list(inspect.signature(getattr(obj, attr)).parameters.values())
                found.append((f"{name}.{attr}", ("method", attr), params[1:] if isinstance(value, FunctionType) else params))
    out = {}
    for name, key, params in found:
        for i, param in enumerate(params):
            if param.default is not param.empty:
                position = None if param.kind is param.KEYWORD_ONLY else i
                out[f"{layer}.{name}({param.name}=)"] = (key, position, param.name)
    return out


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
    # a KEPT field or default is public here; its own test finds it stale
    # once it is read or left out
    public += public_fields(layer) + list(public_defaults(layer))
    assert [name for name in KEPT if name.startswith(f"{layer}.") and (name in reached() or name not in public)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_field_is_read(layer):
    # each field of a dataclass in `__all__` is read as an attribute by
    # reached code (by name, whatever the object), or is KEPT, as is every
    # field of a KEPT class; a KEPT field that reached code reads leaves KEPT.
    # A report field that only the tests read is an output no user sees
    reads = reference_graph()[1]
    read = {attr for (file, name), attrs in reads.items() if name is None or f"{file}.{name}" in reached() for attr in attrs}
    fields = public_fields(layer)
    unread = [name for name in fields if name.rpartition(".")[2] not in read]
    assert [name for name in unread if not {name, name.rpartition(".")[0]} & KEPT.keys()] == []
    assert [name for name in KEPT if name in fields and name not in unread] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_every_keyword_default_is_relied_on(layer):
    # each default of a public callable is left out by at least one call of
    # reached code, or is KEPT; a default that every caller passes is a
    # second source of the value, which belongs to the caller.  A KEPT
    # default that a reached call leaves out leaves KEPT
    calls = reference_graph()[4]
    made = [call for (file, name), owned in calls.items() if name is None or f"{file}.{name}" in reached() for call in owned]

    def relied_on(key, position, param):
        return any(
            callee == key and count is not None and (position is None or count <= position) and param not in passed
            for callee, count, passed in made
        )

    defaults = public_defaults(layer)
    unused = [name for name, spec in defaults.items() if not relied_on(*spec)]
    assert [name for name in unused if name not in KEPT] == []
    assert [name for name in KEPT if name in defaults and name not in unused] == []


def test_the_config_format_is_read_in_cli_alone():
    # cli defines every config reader; no other file of src/ defines or
    # refers to one, and no file of src/ defines or reads a dict converter
    # (bench/run.py, not in src/, times cli's readers)
    edges, reads, _, defined, _ = reference_graph()
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
