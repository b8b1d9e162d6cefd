"""Spans around the public functions of each `toda_kdq` layer.

The spans are recorded from the benchmark's side: each traced function is
replaced, in every `toda_kdq` module namespace that binds it, by a wrapper
that records (function, op, parent span, start, end).  Spans stay in memory
and are written out once the run ends.  The layers are the modules.
"""

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "verify", "sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow")

# Left out of the wrapping: the sphere validators run inside every harmonic
# evaluation and cost less than a span would.
_SKIP = {"sphere.dim_harmonics", "sphere.check_index", "sphere.as_direction"}
# Public, and called by the CLI, but missing from the module's __all__.
_EXTRA = {"pseudo_toda": ("state_trajectory_csv",)}

# Work units counted at the boundary of a traced function, from its arguments.
_UNITS = {
    "toda_1d.integrate_toda": lambda args, kwargs: int(
        round(args[1] / (args[2] if len(args) > 2 else kwargs.get("dt", 1e-3)))
    ),
    "toda_1d.trajectory_to_csv": lambda args, kwargs: len(args[0]),
}

# (metric, unit, traced function, counted quantity); a rate divides the
# quantity by the function's own-layer time in cal.
RATES = (
    ("toda_1d.rk4_steps_per_cal", "steps/cal", "toda_1d.integrate_toda", "units"),
    ("toda_1d.csv_rows_per_cal", "rows/cal", "toda_1d.trajectory_to_csv", "units"),
    ("toda_1d.spectral_solves_per_cal", "calls/cal", "toda_1d.spectral_solve", "calls"),
    ("moment_1d.lanczos_per_cal", "calls/cal", "moment_1d.jacobi_from_measure", "calls"),
    ("moment_1d.eigh_per_cal", "calls/cal", "moment_1d.spectral_data_from_jacobi", "calls"),
    ("moment_1d.stieltjes_per_cal", "calls/cal", "moment_1d.stieltjes_transform", "calls"),
    ("sphere.harmonic_evals_per_cal", "calls/cal", "sphere.eval_harmonic", "calls"),
    ("sphere.basis_evals_per_cal", "calls/cal", "sphere.harmonic_basis", "calls"),
    ("kdq.transforms_per_cal", "calls/cal", "kdq.markov_stieltjes", "calls"),
    ("kdq.projections_per_cal", "calls/cal", "kdq.project_transform", "calls"),
    ("kdq.kernel_evals_per_cal", "calls/cal", "kdq.hua_kernel", "calls"),
    ("kdq.cauchy_per_cal", "calls/cal", "kdq.cauchy_reproduce", "calls"),
    ("pseudo_toda.evolves_per_cal", "calls/cal", "pseudo_toda.evolve", "calls"),
    ("pseudo_toda.jacobis_per_cal", "calls/cal", "pseudo_toda.component_jacobi", "calls"),
    ("iso_flow.riccati_per_cal", "calls/cal", "iso_flow.riccati_evolve", "calls"),
)


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"{layer}.self_cal": "cal" for layer in LAYERS}
    units.update({name: unit for name, unit, _, _ in RATES})
    units["sphere.nodes_hit_ratio"] = "1"
    return units


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self):
        self.functions = []  # qualified name per function id
        self.layer_of = []  # index into LAYERS per function id
        self.fid = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units = {}
        self.op_id = -1
        self._stack = [-1]
        self._nodes = None
        self._nodes_info0 = None

    def install(self):
        """Wrap the traced functions in every loaded `toda_kdq` module."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("toda_kdq")}
        originals = {}
        for layer_index, layer in enumerate(LAYERS):
            mod = modules[f"toda_kdq.{layer}"]
            for attr in tuple(mod.__all__) + _EXTRA.get(layer, ()):
                fn = getattr(mod, attr)
                qual = f"{layer}.{attr}"
                if isinstance(fn, type) or not callable(fn) or qual in _SKIP:
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                originals[id(fn)] = (fn, self._wrap(fn, qual, layer_index))
                if attr == "sphere_nodes":
                    self._nodes = fn
                    self._nodes_info0 = fn.cache_info()
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, fn, qual, layer_index):
        fid = len(self.functions)
        self.functions.append(qual)
        self.layer_of.append(layer_index)
        units = _UNITS.get(qual)
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.fid.append(fid)
            self.op.append(self.op_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            if units is not None:
                self.units[qual] = self.units.get(qual, 0) + units(args, kwargs)
            stack.append(sid)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf()
                stack.pop()

        return wrapper

    def _times(self):
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child  # self time: the span minus its child spans
        layer = np.asarray(self.layer_of, dtype=np.int64)[fid] if fid.size else fid
        # own-layer time: self time plus that of same-layer descendants
        # reached through same-layer parents; children start after parents
        layer_time = own.copy()
        same = np.zeros(dur.size, dtype=bool)
        same[nested] = layer[parent[nested]] == layer[nested]
        for sid in np.flatnonzero(same)[::-1]:
            layer_time[parent[sid]] += layer_time[sid]
        return fid, layer, own, layer_time

    def summary(self, cal_s: float, rounds: int) -> dict:
        """Per-layer metrics: self time per round in cal, and work rates."""
        fid, layer, own, layer_time = self._times()
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_cal"] = float(own[layer == i].sum()) / cal_s / rounds
        for name, _, qual, quantity in RATES:
            if qual not in self.functions:
                sys.stderr.write(f"perfbench: {qual} is not a public function; {name} reads 0\n")
                out[name] = 0.0
                continue
            mask = fid == self.functions.index(qual)
            count = int(mask.sum()) if quantity == "calls" else self.units.get(qual, 0)
            busy = float(layer_time[mask].sum()) / cal_s
            out[name] = count / busy if busy > 0.0 else 0.0
        info = self._nodes.cache_info()
        hits = info.hits - self._nodes_info0.hits
        calls = hits + info.misses - self._nodes_info0.misses
        out["sphere.nodes_hit_ratio"] = hits / calls if calls else 0.0
        return out

    def write(self, path: Path):
        np.savez(
            path,
            functions=np.asarray(self.functions),
            function=np.frombuffer(self.fid, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
