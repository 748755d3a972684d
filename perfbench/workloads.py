"""The benchmark's workloads: one fixed plan per public entry point.

Each plan keeps the p, n, d, k, s and family that decide which layer
dominates it, so that every layer a later optimisation targets dominates one
workload and is nearly absent from another:

* coverage-p31      folds (`fold_counts`, 7 per trial) and 30 Euclidean level
                    spectra in set-up;
* energy-f27        extension-field arithmetic and one table roll per variety
                    point in `energy_growth_audit`;
* sumset-affine-p23 the affine digraph spectrum (set-up, run time and peak
                    memory); folds are about 1.5% of it;
* mixing-cli        scalar index arithmetic in `mixing_audit` through the CLI;
                    no folds at all.

sumset-affine-p23 uses absolute sizes because the F_23 circle has only 24
points: threshold-relative sizes would all clamp to the full variety.
energy-f27 keeps two trials per size: its run time depends on the sampled
subsets by up to 17% from seed to seed, and two trials average that out.
BENCHMARK.json gives the one-line reason for each workload.
"""

import contextlib
import gc
import importlib
import io
import json
import sys
import time
import types
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DROPPED_KEYS = ("stamp", "diagnostics")
MODULES = ("field", "domains", "geometry", "spectra", "energy", "experiments", "cli")


def load_program():
    """Import fqspectra from this checkout's `src/`, never from elsewhere.

    Raises SystemExit (code 1, message on stderr) when the sources are absent.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"fqspectra.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fqspectra from {src}: {exc}")
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: fqspectra was imported from {origin}, not from {src}")
    return types.SimpleNamespace(**mods)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str   # "coverage", "energy" or "sumset" runner, or "mixing" CLI audit
    plan: dict   # ExperimentPlan fields, or `audit mixing` options


WORKLOADS = {w.name: w for w in (
    Workload("coverage-p31", "coverage",
             dict(p=31, d=3, family="sphere", j=1, k=3, sizes=(1, 2), trials=4)),
    Workload("energy-f27", "energy",
             dict(p=3, n=3, d=3, family="sphere", j=1, ks=(2, 3, 4), sizes=(1, 2, 4),
                  trials=2)),
    Workload("sumset-affine-p23", "sumset",
             dict(p=23, d=2, family="sphere", j=1, k=3, s=2, sizes=(8, 16),
                  sizes_mode="absolute", x_sizes=(1, 5), trials=3)),
    Workload("mixing-cli", "mixing",
             dict(p=31, d=3, family="sphere", pairs=20000)),
)}

RUNNERS = {"coverage": "coverage_experiment", "energy": "energy_bound_experiment",
           "sumset": "sumset_experiment"}


def setup_workload(w: Workload) -> Workload:
    """The same plan with no work items: one trial of size 0, or zero pairs."""
    if w.entry == "mixing":
        return replace(w, plan={**w.plan, "pairs": 0})
    return replace(w, plan={**w.plan, "sizes": (0,), "sizes_mode": "absolute",
                            "trials": 1})


def mixing_argv(plan: dict, seed: int) -> list:
    return ["audit", "mixing", "--p", str(plan["p"]), "--d", str(plan["d"]),
            "--family", plan["family"], "--pairs", str(plan["pairs"]),
            "--seed", str(seed)]


def canonical(obj):
    """JSON-normal form of a report, without the keys that may differ run to run."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k not in DROPPED_KEYS}
        if isinstance(x, (list, tuple)):
            return [strip(v) for v in x]
        return x
    return json.loads(json.dumps(strip(obj)))


def run_once(prog, w: Workload, seed: int):
    """Run the workload's plan once through its public entry point.

    Returns (wall seconds from the entry-point call to the finished report,
    canonical result).  The entry point is looked up at call time, so
    wrappers installed by the tracer are used.
    """
    gc.collect()
    if w.entry == "mixing":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = prog.cli.main(mixing_argv(w.plan, seed))
            elapsed = time.perf_counter() - t0
        return elapsed, {"exit_code": code, "report": json.loads(out.getvalue())}
    plan = prog.experiments.ExperimentPlan(**w.plan, seed=seed)
    runner = getattr(prog.experiments, RUNNERS[w.entry])
    t0 = time.perf_counter()
    report = runner(plan)
    elapsed = time.perf_counter() - t0
    return elapsed, canonical(report.as_dict())
