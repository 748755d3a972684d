"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured constants.  Every tolerance is pinned here, not
calibrated later: exact equality for integer counts, 1e-6-of-bound slack for
floating inequality audits, 1e-9 for pinned eigenvalue equalities.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest

from fqspectra.domains import PointDomain
from fqspectra.field import FieldContext
from fqspectra.energy import (
    FoldLadder,
    delta_set,
    energy_growth_audit,
    lambda_k,
    nu_deviation_audits,
    nu_k,
    nu_P_k,
    second_moment_audit,
)
from fqspectra.geometry import QuadraticForm, builtin_variety, diagonal_poly, eval_poly_table
from fqspectra.spectra import (
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    merge_multisets,
    mixing_audit,
)
from fqspectra.experiments import ExperimentPlan, coverage_experiment

from oracles import (
    add,
    brute_delta,
    brute_lambda,
    brute_nu,
    flat_multisets,
    point_of,
    pow_poly,
    sub,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"acceptance {num} ({name}) failed{suffix}"


# -- 1. oracle equivalence ------------------------------------------------------

def test_acceptance_1_oracle_equivalence():
    start = time.time()
    rng = random.Random(20260810)
    grids = [(3, 2), (5, 2), (3, 3)]
    checked = 0
    for p, d in grids:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        form = QuadraticForm.identity(d)

        def q_of(z, p=p):
            return sum(c * c for c in z) % p

        for _ in range(200):
            size = rng.randint(1, 6)
            idxs = rng.sample(range(dom.size), size)
            E = sorted(point_of(dom, i) for i in idxs)
            ladder = FoldLadder(dom, E)
            for k in (2, 4):
                assert lambda_k(ladder, k) == brute_lambda(p, E, k)
            for k in (2, 3):
                got = nu_k(ladder, form.value_table(dom), k)
                want = brute_nu(p, E, form.coeffs, k)
                assert all(got[t] == want.get(t, 0) for t in range(p))
                ds = delta_set(got)
                assert set(ds.values) == brute_delta(p, E, q_of, k)
            checked += 1
    elapsed = time.time() - start
    _report(1, "oracle equivalence (exact)", checked == 600 and elapsed < 60,
            f"{checked} subsets, {elapsed:.1f}s")


# -- 2. Euclidean graph bounds --------------------------------------------------

def test_acceptance_2_euclidean_graph_bounds():
    start = time.time()
    worst = 0.0
    ok = True
    for p in (3, 5, 7, 11):
        ctx = FieldContext(p)
        for d in (2, 3):
            dom = PointDomain(ctx, d)
            qvals = QuadraticForm.identity(d).value_table(dom)
            bound = 2 * ctx.q ** ((d - 1) / 2)
            for t in range(1, ctx.q):
                spec, check = euclidean_spectrum(dom, qvals, t)
                worst = max(worst, spec.lambda_second / ctx.q ** ((d - 1) / 2))
                if spec.lambda_second > bound + 1e-6:
                    ok = False
    elapsed = time.time() - start
    _report(2, "euclidean graph second-eigenvalue bound", ok and elapsed < 120,
            f"worst lambda/q^((d-1)/2) = {worst:.4f}, {elapsed:.1f}s")


# -- 3. variety Cayley graph bounds ---------------------------------------------

def test_acceptance_3_variety_cayley_bounds():
    start = time.time()
    measured = {}
    ok = True
    for family in ("sphere", "paraboloid", "minkowski"):
        worst = 0.0
        for p in (3, 5, 7, 11):
            ctx = FieldContext(p)
            for d in (2, 3):
                v = builtin_variety(ctx, family, d,
                                    1 if family != "paraboloid" else None)
                spec = cayley_spectrum(ctx, v.points, d=d)
                c = spec.lambda_second / ctx.q ** ((d - 1) / 2)
                worst = max(worst, c)
                if c > 2.0 + 1e-6:
                    ok = False
        measured[family] = worst
    elapsed = time.time() - start
    detail = ", ".join(f"{fam}: c={c:.4f}" for fam, c in measured.items())
    _report(3, "variety Cayley second-eigenvalue bound", ok and elapsed < 120,
            f"{detail}, {elapsed:.1f}s")


# -- 4. affine digraph bound ----------------------------------------------------

AFFINE_ROWS = [(3, 1, 2), (5, 1, 2), (5, 1, 3), (7, 1, 2), (7, 1, 3)]


@pytest.mark.parametrize("p,d,s", AFFINE_ROWS, ids=[f"p{p}-s{s}" for p, d, s in AFFINE_ROWS])
def test_acceptance_4_affine_digraph_bound(p, d, s):
    ctx = FieldContext(p)
    assert ctx.q ** (2 * d + 1) <= 16807
    pspec = diagonal_poly(ctx, d, s)
    spec, check = affine_cayley_spectrum(ctx, pspec, d)
    # Weil: each of the 2d coordinate sums has modulus <= (s-1)*sqrt(q).
    lam, qd = spec.lambda_second, ctx.q ** d
    ceiling = float((s - 1) ** (2 * d) * qd)
    ok = lam <= ceiling + 1e-6 and check.within and check.bound == ceiling
    if s == 2:
        # Quadratic Gauss sums have modulus exactly sqrt(q).
        ok = ok and abs(lam - qd) <= 1e-9
    _report(4, f"affine digraph bound (p={p}, s={s})", ok,
            f"lambda = {lam:.6f}, q^d = {qd}, Weil ceiling (s-1)^(2d)*q^d = {ceiling:.0f}")


# -- 5. mixing inequalities -----------------------------------------------------

def _random_multiset(rng, n):
    out = Counter()
    for _ in range(rng.randint(1, 8)):
        out[rng.randrange(n)] += rng.randint(1, 3)
    return out


def _affine_connection_indices(ctx, dom, s, d):
    pairs = PointDomain(ctx, 2 * d)
    out = []
    for idx in range(pairs.size):
        x = point_of(pairs, idx)
        val = 0
        for j in range(d):
            val = add(ctx, val, ctx.mul(1, pow_poly(ctx, x[j], s)))
        for j in range(d, 2 * d):
            val = sub(ctx, val, ctx.mul(1, pow_poly(ctx, x[j], s)))
        out.append(dom.index_of((ctx.neg(val),) + x))
    return out


def _criterion_graphs():
    """Every graph exercised by criteria 2-4, with its edge oracle."""
    for p in (3, 5, 7, 11):
        ctx = FieldContext(p)
        for d in (2, 3):
            dom = PointDomain(ctx, d)
            form = QuadraticForm.identity(d)
            table = form.value_table(dom)
            for t in range(1, ctx.q):
                idxs = [int(i) for i in np.nonzero(table == t)[0]]
                pts = [point_of(dom, i) for i in idxs]
                spec = cayley_spectrum(ctx, pts, d=d)
                yield f"euclidean p={p} d={d} t={t}", spec, dom, idxs
    for family in ("sphere", "paraboloid", "minkowski"):
        for p in (3, 5, 7, 11):
            ctx = FieldContext(p)
            for d in (2, 3):
                v = builtin_variety(ctx, family, d,
                                    1 if family != "paraboloid" else None)
                dom = PointDomain(ctx, d)
                spec = cayley_spectrum(ctx, v.points, d=d)
                yield f"{family} p={p} d={d}", spec, dom, [int(i) for i in v.indices]
    for p, d, s in AFFINE_ROWS:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, 2 * d + 1)
        pspec = diagonal_poly(ctx, d, s)
        spec, _ = affine_cayley_spectrum(ctx, pspec, d)
        yield f"affine p={p} s={s}", spec, dom, _affine_connection_indices(ctx, dom, s, d)


def test_acceptance_5_mixing_never_violated():
    start = time.time()
    rng = random.Random(5)
    graphs = 0
    audits = 0
    min_rel_gap = None
    ok = True
    for name, spec, dom, conn in _criterion_graphs():
        member = np.zeros(dom.size, dtype=bool)
        member[conn] = True
        graphs += 1
        pairs = [(_random_multiset(rng, dom.size), _random_multiset(rng, dom.size))
                 for _ in range(1000)]
        B, C = (merge_multisets(*flat_multisets(side), dom.size) for side in zip(*pairs))
        audit = mixing_audit(spec, dom, member, B, C)
        audits += len(audit.ok)
        rel = np.divide(audit.gap, audit.bound, out=np.zeros(len(audit.gap)),
                        where=audit.bound != 0)
        min_rel_gap = rel.min() if min_rel_gap is None else min(min_rel_gap, rel.min())
        if np.any(audit.gap < -1e-6 * audit.bound):
            ok = False
    elapsed = time.time() - start
    _report(5, "mixing inequality never violated", ok and elapsed < 120,
            f"{graphs} graphs, {audits} pairs, min gap/bound = {min_rel_gap:.3g}, "
            f"{elapsed:.1f}s")


# -- 6. exact-inequality ledger -------------------------------------------------

LEDGER_GRIDS = [(5, 2), (5, 3), (7, 2)]


def test_acceptance_6_exact_inequality_ledger():
    start = time.time()
    violations = []
    configs = 0
    for p, d in LEDGER_GRIDS:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        form = QuadraticForm.identity(d)
        spectra = {t: euclidean_spectrum(dom, form.value_table(dom), t)[0]
                   for t in range(1, ctx.q)}
        variety = builtin_variety(ctx, "sphere", d, 1)
        variety_graph = cayley_spectrum(ctx, variety.indices, d=d)
        V = FoldLadder(dom, variety.indices)
        pspec = diagonal_poly(ctx, d, 2)
        affine_graph, _ = affine_cayley_spectrum(ctx, pspec, d)
        rng = random.Random(600 + p * d)

        def draw_subset(limit):
            size = rng.randint(1, limit)
            return sorted(point_of(dom, i) for i in rng.sample(range(dom.size), size))

        for _ in range(100):
            # deviation audits, even and odd k
            for k in (2, 4, 3):
                E = FoldLadder(dom, draw_subset(10))
                t = rng.randint(1, ctx.q - 1)
                table = nu_k(E, form.value_table(dom), k)
                audit = nu_deviation_audits(E, table, k, spectra, ts=(t,))[0]
                configs += 1
                if not audit.ok:
                    violations.append(("nu-deviation", p, d, k, audit.as_dict()))
            # energy growth inside the sphere, even k = 4
            size = rng.randint(1, variety.size)
            E = FoldLadder(dom, sorted(rng.sample(list(variety.points), size)))
            audit = energy_growth_audit(V, E, 4, variety_graph)
            configs += 1
            if not audit.ok:
                violations.append(("energy-growth", p, d, 4, audit.as_dict()))
            # second-moment audits, even and odd k
            for k in (2, 3):
                E = FoldLadder(dom, draw_subset(8))
                X = sorted(rng.sample(range(ctx.q), rng.randint(1, ctx.q)))
                table = nu_P_k(ctx, nu_k(E, eval_poly_table(dom, pspec), k), X)
                audit = second_moment_audit(E, table, len(X), k, affine_graph)
                configs += 1
                if not audit.ok:
                    violations.append(("second-moment", p, d, k, audit.as_dict()))
    elapsed = time.time() - start
    _report(6, "exact-inequality ledger (measured lambda)",
            not violations, f"{configs} configurations, "
            f"{len(violations)} violations, {elapsed:.1f}s")


# -- 7. desk-scale trend for the main conclusions --------------------------------

def test_acceptance_7_coverage_trend():
    start = time.time()
    primes = (5, 7, 11, 13)
    rates = {}
    deviations = {}
    for p in primes:
        plan = ExperimentPlan(p=p, d=3, family="sphere", j=1, k=3,
                              sizes=(2.0,), sizes_mode="threshold",
                              trials=20, seed=20260810)
        rep = coverage_experiment(plan)
        assert rep.hard_failures == 0
        covered = sum(1 for r in rep.records if r["covers_Fq_star"])
        rates[p] = covered / len(rep.records)
        devs = [r["rel_deviation"] for r in rep.records if r["rel_deviation"] is not None]
        deviations[p] = sum(devs) / len(devs)
    coverage_ok = all(rates[p] >= 0.95 for p in primes)
    seq = [deviations[p] for p in primes]
    # One inversion allowed, of at most ten percentage points of relative
    # deviation (the deviation itself is a percentage-scale quantity).
    inversions = [(i, seq[i + 1] - seq[i]) for i in range(len(seq) - 1)
                  if seq[i + 1] > seq[i]]
    trend_ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0][1] <= 0.10)
    elapsed = time.time() - start
    inv_detail = ", ".join(
        f"step {primes[i]}->{primes[i+1]}: +{d:.4f} abs"
        f" (+{d/seq[i]:.0%} rel)" for i, d in inversions) or "none"
    detail = (f"coverage rates {rates}, mean deviations "
              + "{" + ", ".join(f"{p}: {deviations[p]:.4f}" for p in primes) + "}"
              + f", inversions: {inv_detail}, {elapsed:.1f}s")
    _report(7, "coverage and deviation trend at 2x threshold",
            coverage_ok and trend_ok and elapsed < 300, detail)


# -- 8. worked fixtures ----------------------------------------------------------

def test_acceptance_8_worked_fixtures():
    ctx = FieldContext(3)
    dom = PointDomain(ctx, 2)
    v = builtin_variety(ctx, "sphere", 2, 1)
    form = QuadraticForm.identity(2)
    E = FoldLadder(dom, v.points)
    nu = nu_k(E, form.value_table(dom), 2)
    ds = delta_set(nu)
    spec = cayley_spectrum(ctx, v.points, d=2)
    ok = (v.size == 4
          and lambda_k(E, 4) == 36
          and [nu[t] for t in range(3)] == [4, 4, 8]
          and ds.values == (0, 1, 2)
          and abs(spec.lambda_second - 2.0) < 1e-9)
    # cross-checked against the brute-force oracle path of criterion 1
    ok = ok and brute_lambda(3, list(v.points), 4) == 36
    want = brute_nu(3, list(v.points), (1, 1), 2)
    ok = ok and all(nu[t] == want.get(t, 0) for t in range(3))
    _report(8, "worked fixtures over F_3^2", ok,
            f"|S_1| = {v.size}, energy = 36, nu = (4,4,8), lambda = 2")
