"""Span recorder and wrappers for the traced run, kept outside the program.

Each call into a wrapped public function or method records one span (name,
start, end, parent span) in memory.  A function is replaced at every binding
site: in its own module's globals, since modules call their own functions
through them, and wherever another fqspectra module imported it by name.
Methods are replaced on their class.  Everything is restored on exit.

Self time is a span's duration minus the time its child spans cover.  The
wrappers add a fixed cost per call, which inflates hot leaf methods such as
`PointDomain.index_of`; `trace.overhead_frac` reports the total.

A target the program does not define, or a derived count whose parameter the
program renamed, raises TraceError: reading such a layer as 0 would look like
a gain.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Wrapped callables as "<module>.<function>" or "<module>.<Class>.<method>".
TARGETS = (
    "field.FieldContext.__init__", "field.FieldContext.mul_vec",
    "field.FieldContext.pow_table",
    "domains.PointDomain.translate_table", "domains.PointDomain.index_of",
    "domains.PointDomain.index_sub", "domains.character_sum_table",
    "geometry.enumerate_variety", "geometry.regularity_check",
    "geometry.eval_poly_table", "geometry.QuadraticForm.value_table",
    "spectra.euclidean_spectrum", "spectra.affine_cayley_spectrum",
    "spectra.cayley_spectrum", "spectra.mixing_audit",
    "energy.fold_counts", "energy.lambda_k", "energy.nu_k", "energy.nu_P_k",
    "energy.delta_set", "energy.nu_deviation_audits", "energy.energy_growth_audit",
    "energy.second_moment_audit",
    "experiments.sample_subset", "experiments.coverage_experiment",
    "experiments.energy_bound_experiment", "experiments.sumset_experiment",
    "cli.main",
)
# Span names that differ from the target: construction is named after the
# class, and the three experiment runners share one name.
SPAN_NAMES = {
    "field.FieldContext.__init__": "field.FieldContext",
    "experiments.coverage_experiment": "experiments.runner",
    "experiments.energy_bound_experiment": "experiments.runner",
    "experiments.sumset_experiment": "experiments.runner",
}

# Per-layer metrics reported by the traced run, with their units.
PER_LAYER = (
    ("field.FieldContext.s", "s"),
    ("field.FieldContext.mul_vec.calls", "count"),
    ("field.FieldContext.mul_vec.s", "s"),
    ("field.FieldContext.pow_table.calls", "count"),
    ("domains.PointDomain.translate_table.calls", "count"),
    ("domains.PointDomain.translate_table.s", "s"),
    ("domains.PointDomain.index_of.calls", "count"),
    ("domains.PointDomain.index_sub.calls", "count"),
    ("domains.PointDomain.index_sub.s", "s"),
    ("domains.character_sum_table.calls", "count"),
    ("domains.character_sum_table.s", "s"),
    ("domains.character_sum_table.cells", "count"),
    ("geometry.enumerate_variety.s", "s"),
    ("geometry.regularity_check.s", "s"),
    ("geometry.QuadraticForm.value_table.calls", "count"),
    ("geometry.eval_poly_table.calls", "count"),
    ("spectra.euclidean_spectrum.calls", "count"),
    ("spectra.euclidean_spectrum.s", "s"),
    ("spectra.affine_cayley_spectrum.s", "s"),
    ("spectra.affine_cayley_spectrum.self_s", "s"),
    ("spectra.cayley_spectrum.calls", "count"),
    ("spectra.mixing_audit.calls", "count"),
    ("spectra.mixing_audit.s", "s"),
    ("spectra.mixing_audit.self_s", "s"),
    ("energy.fold_counts.calls", "count"),
    ("energy.fold_counts.s", "s"),
    ("energy.fold_counts.self_s", "s"),
    ("energy.fold_counts.cells", "count"),
    ("energy.fold_counts.distinct_frac", "frac"),
    ("energy.lambda_k.calls", "count"),
    ("energy.lambda_k.s", "s"),
    ("energy.nu_k.s", "s"),
    ("energy.nu_P_k.s", "s"),
    ("energy.delta_set.s", "s"),
    ("energy.nu_deviation_audits.s", "s"),
    ("energy.energy_growth_audit.s", "s"),
    ("energy.energy_growth_audit.self_s", "s"),
    ("energy.second_moment_audit.s", "s"),
    ("experiments.sample_subset.calls", "count"),
    ("experiments.sample_subset.s", "s"),
    ("experiments.runner.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class TraceError(RuntimeError):
    """The program lacks a function, method or parameter the tracer wraps."""


class Recorder:
    """Spans of one traced run, plus counts derived from call arguments."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []          # (name id, start, end, parent index, outermost)
        self._stack = [-1]
        self._depth = defaultdict(int)
        self.fold_cells = 0      # sum of |E| * q^d * (j - 1) over fold_counts calls
        self.char_cells = 0      # sum of q^d over character_sum_table calls
        self.fold_requests = set()
        self.count = 0
        self.table = None

    def wrap(self, name: str, fn, on_call=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            outermost = depth[nid] == 0
            depth[nid] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[nid] -= 1
                stack.pop()
                spans[index] = (nid, start, end, parent, outermost)

        return wrapper

    def close(self):
        """Summarise the spans and pack them into arrays, once the run has ended.

        Keeps a recorder small enough that a run can hold several.
        """
        self.table = self.summary()
        self.count = len(self.spans)
        rows = np.array([s[:4] for s in self.spans], dtype=np.float64).reshape(-1, 4)
        self.spans = rows

    def summary(self) -> dict:
        """name -> {"calls", "s", "self_s"}; s counts outermost spans only."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (nid, start, end, _, outermost) in enumerate(self.spans):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            if outermost:
                agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def per_layer(self, overhead_frac: float) -> dict:
        """Every metric in PER_LAYER, 0 for a layer the run never entered."""
        values = {}
        for name, agg in self.table.items():
            for key, value in agg.items():
                values[f"{name}.{key}"] = value
        values["energy.fold_counts.cells"] = self.fold_cells
        values["domains.character_sum_table.cells"] = self.char_cells
        folds = values.get("energy.fold_counts.calls", 0)
        values["energy.fold_counts.distinct_frac"] = (
            len(self.fold_requests) / folds if folds else 0.0)
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER}

    def save(self, path: Path):
        """Write the packed spans as arrays: name id, start, end and parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.spans
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=rows[:, 0].astype(np.int32), start=rows[:, 1],
                            end=rows[:, 2], parent=rows[:, 3].astype(np.int64))


def _signature(fn, target: str, params: set):
    signature = inspect.signature(fn)
    absent = params - signature.parameters.keys()
    if absent:
        raise TraceError(f"{target} has no parameter {', '.join(sorted(absent))}")
    return signature


def _fold_hook(fn):
    signature = _signature(fn, "energy.fold_counts", {"dom", "E", "j"})

    def on_call(rec, args, kwargs):
        a = signature.bind(*args, **kwargs).arguments
        dom, E, j = a["dom"], a["E"], a["j"]
        rec.fold_cells += len(E) * dom.size * (j - 1)
        rec.fold_requests.add((dom.size, dom.d, j, np.asarray(E).tobytes()))

    return on_call


def _char_hook(fn):
    signature = _signature(fn, "domains.character_sum_table", {"dom"})

    def on_call(rec, args, kwargs):
        rec.char_cells += signature.bind(*args, **kwargs).arguments["dom"].size

    return on_call


# Counts derived from call arguments.
HOOKS = {"energy.fold_counts": _fold_hook, "domains.character_sum_table": _char_hook}


@contextlib.contextmanager
def installed(prog, rec: Recorder):
    """Replace every target at every binding site for the duration of the block.

    Raises TraceError if a target is missing, after restoring what it replaced.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "fqspectra" or name.startswith("fqspectra.")]
    undo = []
    try:
        for target in TARGETS:
            module_name, *path = target.split(".")
            owner = getattr(prog, module_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                raise TraceError(f"{target} is not defined")
            hook = HOOKS[target](original) if target in HOOKS else None
            wrapper = rec.wrap(SPAN_NAMES.get(target, target), original, hook)
            sites = [owner] if len(path) > 1 else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        undo.append((site, attr, value))
                        setattr(site, attr, wrapper)
        yield rec
    finally:
        for site, attr, value in reversed(undo):
            setattr(site, attr, value)
