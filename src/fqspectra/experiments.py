"""Seeded experiment harness: subset sampling, parameter sweeps, and
theorem-level verdicts with reproducible JSON/CSV reports.

Design rule inherited from the inequality audits: statements that are exact
at fixed q (mixing-type inequalities with measured eigenvalues) are hard
verdicts and count as failures; asymptotic conclusions are measured and
recorded, never asserted.  The record keys `covers_Fq_star` and
`rel_deviation` (coverage of F_q^* and the deviation from |E|^k/q),
`hypothesis_margin` (the size hypothesis) and `k<k>_ratio` (the measured
energy-bound constants) carry them.
"""

import csv
import functools
import hashlib
import io
import json
import math
import platform
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .domains import PointDomain
from .energy import (
    FoldLadder,
    FormLevels,
    delta_set,
    energy_growth_audit,
    energy_recursion_ratio,
    energy_term,
    nu_deviation_audits,
    nu_k,
    nu_P_k,
    second_moment_audit,
    sumset_lower_bound,
)
from .errors import InvariantError, SizeExceedsVarietyError
from .field import FieldContext
from .geometry import (
    QuadraticForm,
    Variety,
    builtin_variety,
    diagonal_poly,
    eval_poly_table,
    int_list,
    regularity_check,
)
from .spectra import (
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_check,
    euclidean_spectrum,
)


def _derive_rng(seed: int, trial: int, salt: str = "subset") -> random.Random:
    """Deterministic per-trial stream: SHA-256 of 'salt:seed:trial' seeds a
    Mersenne Twister.  Documented so reports are portable."""
    digest = hashlib.sha256(f"fqspectra:{salt}:{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _trial_order(variety: Variety, seed: int, trial: int) -> list:
    """The variety's index list, shuffled by the (seed, trial) stream."""
    order = variety.indices.tolist()
    _derive_rng(seed, trial).shuffle(order)
    return order


def sample_subset(variety: Variety, size: int, seed: int, trial: int) -> np.ndarray:
    """Uniform random size-subset of the variety, as sorted flat indices.

    The full index list is shuffled once per (seed, trial) and the subset is
    the sorted prefix, so identical inputs give identical subsets and larger
    sizes contain smaller ones (nested chains come for free).  The shuffle
    depends only on the list's length, and index order is lexicographic
    order, so the subsets are those of the sorted point list.
    """
    if size < 0:
        raise ValueError(f"subset size {size} must be >= 0")
    if size > variety.size:
        raise SizeExceedsVarietyError(
            f"requested {size} points from a variety of size {variety.size}")
    return _cut(variety, size, functools.partial(_trial_order, variety, seed, trial))


def _cut(variety: Variety, size: int, order) -> np.ndarray:
    """The size-subset of a seeded shuffle: the whole variety as it is, else
    the sorted prefix of the list `order()` gives, which only then is made."""
    if size == variety.size:
        return variety.indices
    return np.array(sorted(order()[:size]), dtype=np.int64)


def _trial_subsets(variety: Variety, sizes, seed: int, trials: int):
    """(size_index, trial, subset) for every size and trial, in report order:
    the subset is `sample_subset(variety, size, seed, trial)`, cut from the
    trial's order, which is shuffled once, on first need.  The sizes are
    within [0, variety.size], as `ExperimentPlan.resolve_sizes` gives them."""
    order = functools.cache(functools.partial(_trial_order, variety, seed))
    for size_index, size in enumerate(sizes):
        for trial in range(trials):
            yield size_index, trial, _cut(variety, size, functools.partial(order, trial))


def sample_scalar_subset(q: int, size: int, seed: int, trial: int):
    """Seeded subset of F_q, same prefix-of-shuffle scheme with its own salt."""
    if size < 0:
        raise ValueError(f"subset size {size} must be >= 0")
    if size >= q:
        return list(range(q))
    order = list(range(q))
    _derive_rng(seed, trial, salt="scalars").shuffle(order)
    return sorted(order[:size])


@dataclass
class ExperimentPlan:
    """Everything needed to reproduce one experiment run."""

    p: int
    n: int = 1
    d: int = 2
    family: str = "sphere"
    j: int = 1
    k: int = 3
    form: str = "identity"          # diagonal form: identity | diag:a1,a2,...
    s: int = 2                      # diagonal exponent for sumset runs
    coeffs: tuple | None = None     # diagonal coefficients, default all 1
    sizes: tuple = (0.5, 1.0, 2.0, 4.0)
    sizes_mode: str = "threshold"   # threshold multiples or absolute counts
    ks: tuple | None = None         # energy experiment k schedule
    x_sizes: tuple = (1,)
    trials: int = 5
    seed: int = 0
    c: float = 0.5                  # sumset verdict: |X+Delta| >= c*q

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 2:
            raise ValueError(f"k = {self.k} must be >= 2")
        if self.ks and min(self.ks) < 2:
            raise ValueError(f"ks entry k = {min(self.ks)} must be >= 2")
        if min(self.sizes, default=0) < 0:
            raise ValueError(f"sizes entry {min(self.sizes)} must be >= 0")
        if min(self.x_sizes, default=1) < 1:
            raise ValueError(f"x_sizes entry {min(self.x_sizes)} must be >= 1")
        if self.sizes_mode not in ("threshold", "absolute"):
            raise ValueError(f"unknown sizes_mode {self.sizes_mode!r}")
        # |X + Delta| <= q, so a c above 1 is never met; nan fails this too.
        if not 0 < self.c <= 1:
            raise ValueError(f"c = {self.c} must be in (0, 1]")

    def context(self) -> FieldContext:
        return FieldContext(self.p, self.n)

    def threshold(self) -> float:
        q = self.p ** self.n
        return q ** ((self.d - 1) / 2 + 1 / (self.k - 1))

    def resolve_sizes(self, variety_size: int):
        if self.sizes_mode == "threshold":
            return [min(int(round(s * self.threshold())), variety_size) for s in self.sizes]
        return [min(int(s), variety_size) for s in self.sizes]

    def as_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "d": self.d, "family": self.family,
            "j": self.j, "k": self.k, "form": self.form, "s": self.s,
            "coeffs": list(self.coeffs) if self.coeffs else None,
            "sizes": list(self.sizes), "sizes_mode": self.sizes_mode,
            "ks": list(self.ks) if self.ks else None,
            "x_sizes": list(self.x_sizes), "trials": self.trials,
            "seed": self.seed, "c": self.c,
        }

    @classmethod
    def from_file(cls, path, kind: str | None = None) -> "ExperimentPlan":
        """Parse the documented flat `key = value` plan format; a key given
        twice, a line without '=', a key or value that does not read and,
        for a `kind` of `RUNNERS`, a key its runner does not read are
        refused, naming the line."""
        raw, lines = {}, {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"plan line {lineno} without '=': {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in raw:
                    raise ValueError(f"plan key {key!r} repeated on line {lineno}")
                raw[key], lines[key] = value, lineno
        return cls.from_mapping(raw, lines, kind)

    @classmethod
    def from_mapping(cls, raw: dict, lines: dict | None = None,
                     kind: str | None = None) -> "ExperimentPlan":
        """The plan of `raw`, key -> value; ValueError naming the key, and its
        line when `lines` (key -> line number) gives one, for an unknown key,
        a value that does not read, or, when `kind` names a runner of
        `RUNNERS`, a key that runner does not read."""
        kwargs = {}
        for key, value in raw.items():
            where = f" on line {lines[key]}" if lines else ""
            if key not in _PLAN_KEYS:
                raise ValueError(f"unknown plan key {key!r}{where}")
            read, what = _PLAN_KEYS[key]
            try:
                kwargs[key] = read(value)
            except ValueError:
                raise ValueError(f"plan key {key!r}{where}: {value!r} is not {what}") from None
            if kind is not None and key not in RUNNERS[kind][1]:
                raise ValueError(f"plan key {key!r}{where} is not read by a {kind} plan")
        return cls(**kwargs)


def _floats(value) -> tuple:
    return tuple(float(v) for v in str(value).split(","))


# How each plan key's value is read, and what it must be.
_PLAN_KEYS = {
    **dict.fromkeys(("p", "n", "d", "j", "k", "s", "trials", "seed"), (int, "an integer")),
    "c": (float, "a number"),
    "sizes": (_floats, "a list of numbers"),
    **dict.fromkeys(("ks", "x_sizes", "coeffs"), (int_list, "a list of integers")),
    **dict.fromkeys(("family", "form", "sizes_mode"), (str, "text")),
}


@dataclass
class ExperimentReport:
    """Per-trial records plus aggregates, audit verdicts, and a stamp."""

    kind: str
    plan: dict
    stamp: dict
    regularity: dict | None
    records: list
    aggregates: dict
    hard_failures: int = 0
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "plan": self.plan, "stamp": self.stamp,
            "regularity": self.regularity, "records": self.records,
            "aggregates": self.aggregates, "hard_failures": self.hard_failures,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def write_json(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def csv_columns(self):
        cols = []
        for rec in self.records:
            for key in rec:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = self.csv_columns()
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        for rec in self.records:
            writer.writerow({k: rec.get(k, "") for k in cols})
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _stamp(plan: ExperimentPlan) -> dict:
    return {
        "seed": plan.seed,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _setup(plan: ExperimentPlan):
    """The plan's field, domain and variety V, V's Cayley spectrum, and the
    regularity report read off that spectrum."""
    ctx = plan.context()
    variety = builtin_variety(ctx, plan.family, plan.d, plan.j)
    dom = PointDomain(ctx, plan.d)
    graph = cayley_spectrum(ctx, variety.indices, d=plan.d)
    return ctx, dom, variety, graph, regularity_check(graph)


def coverage_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Distance-count coverage: nu_k(t) across t, coverage of F_q^*, relative
    deviation from |E|^k/q, size-hypothesis margins, and hard deviation audits.

    One level spectrum serves each square class t*(F_q^*)^2: x -> c*x maps
    {Q = t} onto {Q = c^2 t} for the diagonal Q, so lambda_{c^2 t}(m) =
    lambda_t(c*m) and the class's levels share the degree and lambda_mixing
    that the audits read.  It is set-up's spectrum of V when V is a level of
    the class, else its smallest t's; a level whose point count is not that
    degree raises InvariantError.

    Each trial's nu_k table is read by dual class off its ladder's held half
    spectrum (`energy.FormLevels`, built once per run next to the value
    table), so a trial makes no inverse transform and no fold table over
    F_q^d; the first nonempty trial builds the q x q class table from two
    level transforms, one per square class.  Where the read's certificate
    fails, the table is binned off the fold by `energy.nu_k`, as exact."""
    form = QuadraticForm.parse(plan.form, plan.d)
    ctx, dom, variety, graph, reg = _setup(plan)
    form.require_nondegenerate(ctx)
    qvals = form.value_table(dom)
    counts = np.bincount(qvals, minlength=ctx.q)
    levels = FormLevels(dom, form, qvals, counts)
    v_vals = list(set(qvals[variety.indices].tolist()))  # V is the level v_level, else 0
    v_level = v_vals[0] if counts[v_vals].tolist() == [variety.size] else 0
    squares, graphs = ctx.pow_table(2)[1:], {}
    for t in range(1, ctx.q):
        if t in graphs:
            continue
        level_class = ctx.mul_vec(squares, t).tolist()
        if v_level in level_class:  # V's spectrum serves V's whole square class
            t, spec, check = v_level, graph, euclidean_check(graph, v_level)
        else:
            spec, check = euclidean_spectrum(dom, qvals, t)
        if not check.within:
            raise InvariantError(f"euclidean graph bound failed at t={t}")
        for u in level_class:
            if counts[u] != spec.degree:
                raise InvariantError(f"level {u} has {counts[u]} points, but level {t} "
                                     f"of its square class has degree {spec.degree}")
            graphs[u] = spec
    records = []
    hard_failures = 0
    sizes = plan.resolve_sizes(variety.size)
    k, q = plan.k, ctx.q
    for size_index, trial, subset in _trial_subsets(variety, sizes, plan.seed, plan.trials):
        E = FoldLadder(dom, subset)
        rec = {"size_index": size_index, "trial": trial, "size": len(E)}
        table = levels.nu_k(E, k)
        nonzero_t = table.tolist()[1:]
        rec["min_nu_nonzero_t"] = min(nonzero_t) if nonzero_t else 0
        ds = delta_set(table)
        rec["covers_Fq_star"], rec["covers_Fq"] = ds.covers_Fq_star, ds.covers_Fq
        if len(E) > 0:
            main = len(E) ** k / q
            rec["rel_deviation"] = max(abs(count / main - 1) for count in nonzero_t)
            lo, hi = energy_term(E, k)
            rec["hypothesis_margin"] = (q ** ((plan.d + 1) / 2)
                                        * math.sqrt(float(lo) * float(hi)) / len(E) ** k)
            audits = nu_deviation_audits(E, table, k, graphs)
            failures = sum(1 for a in audits if not a.ok)
            rec["audit_failures"] = failures
            rec["max_audit_gap_used"] = max(
                (a.deviation / a.bound if a.bound else 0.0) for a in audits)
            hard_failures += failures
        else:
            rec["rel_deviation"] = None
            rec["hypothesis_margin"] = None
            rec["audit_failures"] = 0
        records.append(rec)
    nonempty = [r for r in records if r["size"] > 0]
    aggregates = {
        "coverage_rate_star": (sum(1 for r in records if r["covers_Fq_star"])
                               / len(records)) if records else None,
        "mean_rel_deviation": (sum(r["rel_deviation"] for r in nonempty)
                               / len(nonempty)) if nonempty else None,
        "threshold": plan.threshold(),
        "sizes": sizes,
    }
    return ExperimentReport(kind="coverage", plan=plan.as_dict(), stamp=_stamp(plan),
                            regularity=reg.as_dict(), records=records,
                            aggregates=aggregates, hard_failures=hard_failures)


def energy_bound_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Measured constants in the energy growth bounds for subsets of a variety.

    Trials whose subset violates |E| > q^{(d-1)/2} are recorded as skipped.
    Even k >= 4 additionally runs the hard multiset-mixing audit, against the
    variety's Cayley spectrum: set-up builds it once for the regularity
    report, and every audit shares it, as it shares the variety's ladder and
    so its one transform."""
    ctx, dom, variety, graph, reg = _setup(plan)
    V = FoldLadder(dom, variety.indices)
    ks = plan.ks or (plan.k,)
    records = []
    hard_failures = 0
    q = ctx.q
    hypothesis_floor = q ** ((plan.d - 1) / 2)
    sizes = plan.resolve_sizes(variety.size)
    for size_index, trial, subset in _trial_subsets(variety, sizes, plan.seed, plan.trials):
        E = FoldLadder(dom, subset)
        rec = {"size_index": size_index, "trial": trial, "size": len(E)}
        if len(E) <= hypothesis_floor:
            rec["skipped"] = "SubsetTooSmall"
            records.append(rec)
            continue
        for k in ks:
            if k % 2 == 0:
                if k == 2:
                    lam2 = E.energy(2)
                    rec["k2_identity_ok"] = (lam2 == len(E))
                    if lam2 != len(E):
                        hard_failures += 1
                    continue
                rr = energy_recursion_ratio(E, k)
                rec[f"k{k}_energy"] = rr["k_energy"]
                rec[f"k{k}_ratio"] = rr["ratio"]
                audit = energy_growth_audit(V, E, k, graph)
                rec[f"k{k}_audit_ok"] = audit.ok
                if not audit.ok:
                    hard_failures += 1
            else:
                lo, hi = energy_term(E, k)
                prod = lo * hi
                bound = (q ** ((plan.d - 1) * (k - 2)) * len(E) ** 2
                         + q ** (((plan.d - 1) * (k - 3) - 2) / 2) * len(E) ** (k + 1)
                         + len(E) ** (2 * k - 2) / q ** 2)
                rec[f"k{k}_energy_product"] = prod
                rec[f"k{k}_ratio"] = float(prod) / bound if bound else math.inf
        records.append(rec)
    ratios = {}
    for k in ks:
        vals = [r[f"k{k}_ratio"] for r in records if f"k{k}_ratio" in r]
        if vals:
            ratios[str(k)] = {"mean": sum(vals) / len(vals), "max": max(vals)}
    aggregates = {"ratios": ratios, "sizes": sizes,
                  "hypothesis_floor": hypothesis_floor}
    return ExperimentReport(kind="energy", plan=plan.as_dict(), stamp=_stamp(plan),
                            regularity=reg.as_dict(), records=records,
                            aggregates=aggregates, hard_failures=hard_failures)


def sumset_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Shifted distance-set growth |X + Delta| with the exact second-moment
    lower bound, hypothesis margins, and hard mixing/Cauchy-Schwarz audits.

    |X + Delta| is the support size of the nu_{P,k} table: nu_{P,k}(t) sums
    the nonnegative nu_k(t - a) over a in X, so it is nonzero exactly on
    X + Delta."""
    ctx, dom, variety, _, reg = _setup(plan)
    graph, check = affine_cayley_spectrum(ctx, plan.d, plan.s, plan.coeffs)
    if not check.within:
        raise InvariantError(f"affine digraph Weil bound failed: lambda = "
                             f"{check.lambda_measured!r} > {check.bound!r}")
    pvals = eval_poly_table(dom, diagonal_poly(ctx, plan.d, plan.s, plan.coeffs))
    records = []
    hard_failures = 0
    q, k = ctx.q, plan.k
    sizes = plan.resolve_sizes(variety.size)
    shifts = {(trial, x_size): sample_scalar_subset(q, x_size, plan.seed, trial)
              for trial in range(plan.trials) for x_size in plan.x_sizes}
    for size_index, trial, subset in _trial_subsets(variety, sizes, plan.seed, plan.trials):
        E = FoldLadder(dom, subset)
        binned = nu_k(E, pvals, k)
        ds = delta_set(binned)
        for x_size in plan.x_sizes:
            X = shifts[trial, x_size]
            rec = {"size_index": size_index, "trial": trial,
                   "size": len(E), "x_size": len(X)}
            table = nu_P_k(ctx, binned, X)
            ss_size = int(np.count_nonzero(table))
            rec["delta_size"] = len(ds.values)
            rec["sumset_size"] = ss_size
            rec["verdict_cq"] = ss_size >= plan.c * q
            if len(E) > 0:
                bound = sumset_lower_bound(table, len(X), len(E), k)
                rec["cs_bound"] = float(bound)
                rec["cs_bound_ok"] = ss_size >= bound
                if ss_size < bound:
                    hard_failures += 1
                audit = second_moment_audit(E, table, len(X), k, graph)
                rec["second_moment"] = audit.count
                rec["mixing_audit_ok"] = audit.ok
                if not audit.ok:
                    hard_failures += 1
                rec["hypothesis_margin"] = (
                    len(X) * len(E) ** (2 * k - 2)
                    / q ** ((plan.d - 1) * (k - 1) + 2))
            else:
                rec["cs_bound"] = 0.0
                rec["cs_bound_ok"] = True
                rec["hypothesis_margin"] = 0.0
            records.append(rec)
    rates = {}
    if records:
        rates["verdict_rate"] = sum(1 for r in records if r["verdict_cq"]) / len(records)
    aggregates = {"sizes": sizes, "lambda_affine": graph.lambda_second, **rates}
    return ExperimentReport(kind="sumset", plan=plan.as_dict(), stamp=_stamp(plan),
                            regularity=reg.as_dict(), records=records,
                            aggregates=aggregates, hard_failures=hard_failures)


# Each experiment kind's runner and the plan keys it reads; `as_dict` keeps
# all of them, so every report names the whole plan.
_COMMON_KEYS = ("p", "n", "d", "family", "j", "sizes", "sizes_mode", "trials", "seed")
RUNNERS = {
    "coverage": (coverage_experiment, _COMMON_KEYS + ("k", "form")),
    "energy": (energy_bound_experiment, _COMMON_KEYS + ("k", "ks")),
    "sumset": (sumset_experiment, _COMMON_KEYS + ("k", "s", "coeffs", "x_sizes", "c")),
}
