import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqspectra.energy as energy_mod
import fqspectra.spectra as spectra_mod
from fqspectra.cli import main as cli_main
from fqspectra.domains import PointDomain, character_sum_table
from fqspectra.errors import (
    DegenerateFormError,
    EmptyXError,
    InconsistentTotalError,
    InvariantError,
    OddKError,
    SearchSpaceTooLargeError,
)
from fqspectra.experiments import ExperimentPlan, coverage_experiment, energy_bound_experiment
from fqspectra.field import FieldContext, is_prime
from fqspectra.energy import (
    CountTable,
    FoldLadder,
    delta_set,
    energy_growth_audit,
    energy_recursion_ratio,
    energy_term,
    fold_counts,
    lambda_k,
    nu_P_k,
    nu_deviation_audits,
    nu_k,
    second_moment,
    second_moment_audit,
    sumset_lower_bound,
)
from fqspectra.geometry import QuadraticForm, builtin_variety, diagonal_poly, eval_poly_table
from fqspectra.spectra import affine_cayley_spectrum, cayley_spectrum, euclidean_spectrum

from oracles import (
    add,
    brute_delta,
    brute_fold,
    brute_lambda,
    brute_nu,
    brute_nu_P,
    complex_fold_error_bound,
    delta_reference,
    half_spectrum_reference,
    index_add,
    nu_P_reference,
    point_of,
    roll_fold,
    sumset,
)

F3 = FieldContext(3)
F5 = FieldContext(5)
DOM32 = PointDomain(F3, 2)
S1_F3 = builtin_variety(F3, "sphere", 2, 1)


def _random_subset(dom, size, seed):
    rng = random.Random(seed)
    idxs = rng.sample(range(dom.size), size)
    return [point_of(dom, i) for i in idxs]


def _nu_P(dom, E, X, P, k):
    """nu_{P,k} of the point list E, shifted from its one P-binned table."""
    return nu_P_k(dom.ctx, nu_k(FoldLadder(dom, E), eval_poly_table(dom, P), k), X)


def test_fold_depth_one_is_indicator():
    r = fold_counts(DOM32, S1_F3.points, 1)
    for idx in range(DOM32.size):
        expected = 1 if point_of(DOM32, idx) in set(S1_F3.points) else 0
        assert r[idx] == expected


def test_fold_sphere_pairs_worked_values():
    r = fold_counts(DOM32, S1_F3.points, 2)
    assert r[DOM32.index_of((0, 0))] == 4
    assert r[DOM32.index_of((1, 1))] == 2
    assert r[DOM32.index_of((0, 2))] == 1
    assert r.total() == 16


def test_fold_singleton_origin():
    for j in (1, 2, 5):
        r = fold_counts(DOM32, [(0, 0)], j)
        assert r[0] == 1 and r.total() == 1


def test_fold_matches_brute_force():
    rng = random.Random(1)
    for p, d in [(3, 2), (5, 2), (3, 3)]:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        E = _random_subset(dom, rng.randint(1, 6), seed=p * d)
        for j in (1, 2, 3):
            r = fold_counts(dom, E, j)
            want = brute_fold(p, E, j)
            for idx in range(dom.size):
                assert r[idx] == want.get(point_of(dom, idx), 0)


@given(st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_fold_mass_conservation(size, j):
    rng = random.Random(size * 17 + j)
    idxs = rng.sample(range(DOM32.size), size)
    E = [point_of(DOM32, i) for i in idxs]
    assert fold_counts(DOM32, E, j).total() == size ** j


EXTENSION_FIELDS = {(p, n): FieldContext(p, n) for p, n in ((3, 2), (5, 2), (3, 3))}


@given(st.sampled_from(sorted(EXTENSION_FIELDS)), st.integers(1, 3), st.integers(1, 4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_nu_k_total_is_size_to_the_k(pn, d, k, data):
    ctx = EXTENSION_FIELDS[pn]
    dom = PointDomain(ctx, d)
    idx = data.draw(st.lists(st.integers(0, dom.size - 1), unique=True, max_size=8))
    coeffs = data.draw(st.lists(st.integers(1, ctx.q - 1), min_size=d, max_size=d))
    form = QuadraticForm(tuple(coeffs))
    table = nu_k(FoldLadder(dom, np.array(sorted(idx), dtype=np.int64)),
                 form.value_table(dom), k)
    assert table.total() == len(idx) ** k


def test_big_integer_path_matches_int64(monkeypatch):
    E = _random_subset(DOM32, 5, seed=2)
    fast = fold_counts(DOM32, E, 3)
    assert fast.values.dtype == np.int64
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)
    slow = fold_counts(DOM32, E, 3)
    assert slow.values.dtype == object
    assert [int(v) for v in slow.values] == [int(v) for v in fast.values]
    assert lambda_k(FoldLadder(DOM32, E), 6) == sum(int(v) ** 2 for v in fast.values)


def test_full_f101_sphere_fold_of_depth_4_is_exact():
    # The indicator transform refuses here (B > 1/2), so r_4 = r_2 (*) r_2
    # comes from limb products.
    ctx = FieldContext(101)
    dom = PointDomain(ctx, 3)
    v = builtin_variety(ctx, "sphere", 3, 1)
    assert v.size == 10302
    r2 = fold_counts(dom, v.indices, 2).values
    r4 = fold_counts(dom, v.indices, 4)
    assert r4.values.dtype == np.int64
    assert r4.total() == 10302 ** 4
    # The sphere is symmetric, so r_4(0) = sum_z r_2(z) r_2(-z) = Lambda_4.
    assert r4[0] == int(np.dot(r2, r2))


def test_transform_fold_is_capped_by_table_max(monkeypatch):
    dom = PointDomain(F5, 2)
    E = _random_subset(dom, 6, seed=2)
    calls = []
    monkeypatch.setattr(energy_mod, "_transform_fold", lambda *args: calls.append(args))
    monkeypatch.setattr(spectra_mod, "TABLE_MAX", dom.size - 1)
    assert fold_counts(dom, E, 1).values.tolist() == np.bincount(
        dom.as_indices(E), minlength=dom.size).tolist()
    for j in (2, 3):
        with pytest.raises(SearchSpaceTooLargeError,
                           match=r"^q\^d = 25 exceeds the fold budget 24$"):
            fold_counts(dom, E, j)
    assert calls == []


def test_lambda2_is_set_size():
    for size in (1, 2, 3, 4):
        E = _random_subset(DOM32, size, seed=size)
        assert lambda_k(FoldLadder(DOM32, E), 2) == size


def test_lambda4_sphere_is_36_with_brute_force():
    assert lambda_k(FoldLadder(DOM32, S1_F3.points), 4) == 36
    assert brute_lambda(3, list(S1_F3.points), 4) == 36


def test_lambda_singleton():
    for k in (2, 4, 6):
        assert lambda_k(FoldLadder(DOM32, [(0, 0)]), k) == 1


def test_lambda_odd_k_rejected():
    with pytest.raises(OddKError):
        lambda_k(FoldLadder(DOM32, S1_F3.points), 3)


def test_nu_sphere_worked_values():
    table = nu_k(FoldLadder(DOM32, S1_F3.points),
                 QuadraticForm.identity(2).value_table(DOM32), 2)
    assert [table[t] for t in range(3)] == [4, 4, 8]
    want = brute_nu(3, list(S1_F3.points), (1, 1), 2)
    assert all(table[t] == want.get(t, 0) for t in range(3))


def test_nu_total_mass_full_space():
    dom = PointDomain(F3, 2)
    full = [point_of(dom, i) for i in range(dom.size)]
    for k in (1, 2):
        table = nu_k(FoldLadder(dom, full), QuadraticForm.identity(2).value_table(dom), k)
        assert table.total() == dom.size ** k == 3 ** (2 * k)


def test_nu_k1_sphere_definition():
    table = nu_k(FoldLadder(DOM32, S1_F3.points),
                 QuadraticForm.identity(2).value_table(DOM32), 1)
    assert table[1] == 4 and table[0] == 0 and table[2] == 0


def test_nu_degenerate_form_rejected(capsys):
    # nu_k counts for any form; `energy nu` and the coverage runner, which
    # build the form's value table, reject a degenerate one.
    assert cli_main(["energy", "nu", "--p", "3", "--d", "2", "--family", "sphere",
                     "--k", "2", "--form", "diag:1,0"]) == 1
    assert "DegenerateFormError" in capsys.readouterr().err
    plan = ExperimentPlan(p=3, d=2, form="diag:1,0", k=2, sizes=(2,),
                          sizes_mode="absolute", trials=1)
    with pytest.raises(DegenerateFormError):
        coverage_experiment(plan)


def test_nu_P_worked_example():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    table = _nu_P(dom, [(1,), (2,)], [0], P, 2)
    assert [table[t] for t in range(3)] == [2, 2, 0]
    want = brute_nu_P(3, [(1,), (2,)], [0], (1,), 2, 2)
    assert all(table[t] == want.get(t, 0) for t in range(3))


def test_nu_P_zero_shift_equals_plain_distance_count():
    dom = PointDomain(F5, 2)
    P = diagonal_poly(F5, 2, 2)
    E = _random_subset(dom, 4, seed=9)
    with_zero = _nu_P(dom, E, [0], P, 2)
    want = brute_nu_P(5, E, [0], (1, 1), 2, 2)
    assert all(with_zero[t] == want.get(t, 0) for t in range(5))


def test_nu_P_full_shift_set_flattens():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    E = [(1,), (2,)]
    table = _nu_P(dom, E, list(range(3)), P, 2)
    assert [table[t] for t in range(3)] == [4, 4, 4]  # |E|^k each


def test_nu_P_shift_sum_switches_to_big_integers(monkeypatch):
    dom = PointDomain(F5, 1)
    P = diagonal_poly(F5, 1, 2)
    E, X = [(1,), (3,)], [0, 1, 4]
    fast = _nu_P(dom, E, X, P, 2)
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 5)  # |E|^k = 4 < 5 <= |X||E|^k
    slow = _nu_P(dom, E, X, P, 2)
    assert fast.values.dtype == np.int64 and slow.values.dtype == object
    assert [int(v) for v in slow.values] == [int(v) for v in fast.values]


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_value_binning_on_big_integer_tables(p, n, monkeypatch):
    dom = PointDomain(FieldContext(p, n), 2)
    form = QuadraticForm.identity(2)
    P = diagonal_poly(dom.ctx, 2, 2)
    E = _random_subset(dom, 5, seed=p + n)

    def run():
        ladder = FoldLadder(dom, E)
        binned = nu_k(ladder, eval_poly_table(dom, P), 3)
        return (nu_k(ladder, form.value_table(dom), 3), nu_P_k(dom.ctx, binned, [0, 1]),
                delta_set(binned))

    fast = run()
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)  # every fold table is object
    slow = run()
    for a, b in zip(fast[:2], slow[:2]):
        assert a.values.dtype == np.int64 and b.values.dtype == object
        assert [int(v) for v in b.values] == [int(v) for v in a.values]
    assert slow[2] == fast[2]
    assert delta_set(slow[0]) == delta_set(fast[0])


def test_nu_P_empty_X_rejected():
    dom = PointDomain(F3, 1)
    with pytest.raises(EmptyXError):
        _nu_P(dom, [(1,)], [], diagonal_poly(F3, 1, 2), 2)
    with pytest.raises(ValueError, match="value table has shape"):
        nu_k(FoldLadder(PointDomain(F3, 2), [(1, 0)]), np.zeros(3, dtype=np.int64), 2)


COVERAGE_FIELDS = {(p, n): FieldContext(p, n) for p, n in ((5, 1), (3, 2), (3, 3))}


@given(st.sampled_from(sorted(COVERAGE_FIELDS)), st.integers(1, 3), st.integers(1, 4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_coverage_flags_from_nu_support_equal_delta_set_flags(pn, d, k, data):
    dom = PointDomain(COVERAGE_FIELDS[pn], d)
    idx = data.draw(st.lists(st.integers(0, dom.size - 1), unique=True, max_size=10))
    ladder = FoldLadder(dom, np.array(sorted(idx), dtype=np.int64))
    qvals = QuadraticForm.identity(d).value_table(dom)
    ds = delta_set(nu_k(ladder, qvals, k))
    flags = (ds.covers_Fq_star, ds.covers_Fq)
    assert (ds.values, *flags) == delta_reference(dom.ctx.q, qvals, ladder.fold(k).values)
    assert all(type(f) is bool for f in flags)


def test_delta_sphere_covers_f3():
    ds = delta_set(nu_k(FoldLadder(DOM32, S1_F3.points),
                         QuadraticForm.identity(2).value_table(DOM32), 2))
    assert ds.values == (0, 1, 2)
    assert ds.covers_Fq and ds.covers_Fq_star
    want = brute_delta(3, list(S1_F3.points),
                       lambda z: (z[0] ** 2 + z[1] ** 2) % 3, 2)
    assert set(ds.values) == want


def test_delta_singleton_origin():
    ds = delta_set(nu_k(FoldLadder(DOM32, [(0, 0)]),
                        QuadraticForm.identity(2).value_table(DOM32), 3))
    assert ds.values == (0,)
    assert not ds.covers_Fq_star


def test_delta_k1_sphere():
    ds = delta_set(nu_k(FoldLadder(DOM32, S1_F3.points),
                         QuadraticForm.identity(2).value_table(DOM32), 1))
    assert ds.values == (1,)


def test_second_moment_uniform_gives_max_bound():
    vals = np.full(5, 6, dtype=np.int64)  # |X||E|^k = 30 spread evenly
    table = CountTable(q=5, values=vals)
    assert second_moment(table) == 5 * 36
    bound = sumset_lower_bound(table, 5, 6, 1)
    assert bound == Fraction(5)  # q is the maximum possible


def test_second_moment_concentrated_gives_one():
    vals = np.zeros(5, dtype=np.int64)
    vals[2] = 8  # |X| = 2, |E| = 2, k = 2
    table = CountTable(q=5, values=vals)
    assert sumset_lower_bound(table, 2, 2, 2) == Fraction(1)


def test_sumset_bound_worked_example():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    E = [(1,), (2,)]
    binned = nu_k(FoldLadder(dom, E), eval_poly_table(dom, P), 2)
    table = nu_P_k(F3, binned, [0])
    assert second_moment(table) == 8
    bound = sumset_lower_bound(table, 1, 2, 2)
    assert bound == Fraction(16, 8) == 2
    ds = delta_set(binned)
    ss = sumset(F3, [0], ds.values)
    assert ss == (0, 1) and len(ss) >= bound
    assert np.flatnonzero(table.values).tolist() == [0, 1]


SUMSET_FIELDS = {(p, n): FieldContext(p, n) for p, n in ((7, 1), (3, 2), (3, 3))}


@given(st.sampled_from(sorted(SUMSET_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_sumset_matches_double_loop(pn, data):
    ctx = SUMSET_FIELDS[pn]
    # X may repeat elements and hold integers outside 0..q-1; Delta may be empty.
    X = data.draw(st.lists(st.integers(-ctx.q, 3 * ctx.q), max_size=6))
    values = tuple(data.draw(st.lists(st.integers(0, ctx.q - 1), unique=True,
                                      max_size=ctx.q)))
    want = tuple(sorted({add(ctx, int(a), int(v)) for a in X for v in values}))
    got = sumset(ctx, X, values)
    assert got == want
    assert all(type(v) is int for v in got)


def test_sumset_of_empty_delta_is_empty():
    for ctx in SUMSET_FIELDS.values():
        assert sumset(ctx, [0, 1, 1], ()) == ()
        assert sumset(ctx, [], (0, 1)) == ()
        # An empty E bins to an all-zero table, whose shifts have no support.
        dom = PointDomain(ctx, 2)
        values = eval_poly_table(dom, diagonal_poly(ctx, 2, 2))
        empty = FoldLadder(dom, np.array([], dtype=np.int64))
        assert not nu_P_k(ctx, nu_k(empty, values, 2), [0, 1, 1]).values.any()


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (3, 2, 2), (7, 1, 3)])
def test_nu_P_k_support_is_the_sumset(p, n, d):
    # nu_{P,k}(t) sums the nonnegative nu_k(t - a) over a in X, so it is
    # nonzero exactly on X + Delta: the runner and `energy nup` read
    # |X + Delta| off it.
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    rng = random.Random(100 * p + 10 * n + d)
    values = eval_poly_table(dom, diagonal_poly(ctx, d, 2, [rng.randrange(1, ctx.q)
                                                             for _ in range(d)]))
    for size in (0, 1, 2, 5):
        E = FoldLadder(dom, np.array(sorted(rng.sample(range(dom.size), size)),
                                     dtype=np.int64))
        X = [rng.randrange(ctx.q) for _ in range(rng.randint(1, 4))]
        X += X[:1]  # a repeated element counts once
        for k in (1, 2, 3):
            binned = nu_k(E, values, k)
            table = nu_P_k(ctx, binned, X)
            want = sumset(ctx, X, delta_set(binned).values)
            assert tuple(np.flatnonzero(table.values).tolist()) == want


def test_sumset_inconsistent_total_rejected():
    vals = np.zeros(3, dtype=np.int64)
    vals[0] = 7
    table = CountTable(q=3, values=vals)
    with pytest.raises(InconsistentTotalError):
        sumset_lower_bound(table, 1, 2, 2)


def test_energy_term_odd_k_products():
    ladder = FoldLadder(DOM32, S1_F3.points)
    assert energy_term(ladder, 3) == (4, 36, {"k_energy_product": 144})
    lo, hi, detail = energy_term(ladder, 5)
    assert lo == 36 and hi == lambda_k(ladder, 6)
    assert detail == {"k_energy_product": 36 * hi}
    assert energy_term(ladder, 4) == (36, 36, {"k_energy": 36})


def test_energy_recursion_ratio_fixture():
    out = energy_recursion_ratio(FoldLadder(DOM32, S1_F3.points), 4)
    assert out["k_energy"] == 36
    assert out["bound_term"] == pytest.approx(3 * 4 + 64 / 3)
    assert out["ratio"] == pytest.approx(36 / (12 + 64 / 3))


def test_oracle_equivalence_quick():
    rng = random.Random(0)
    for p, d in [(3, 2), (5, 2)]:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        form = QuadraticForm.identity(d)
        for trial in range(20):
            size = rng.randint(1, 6)
            E = _random_subset(dom, size, seed=1000 * p + trial)
            ladder = FoldLadder(dom, E)
            assert lambda_k(ladder, 2) == brute_lambda(p, E, 2)
            assert lambda_k(ladder, 4) == brute_lambda(p, E, 4)
            got = nu_k(ladder, form.value_table(dom), 2)
            want = brute_nu(p, E, form.coeffs, 2)
            assert all(got[t] == want.get(t, 0) for t in range(p))
            ds = delta_set(got)
            want_delta = brute_delta(
                p, E, lambda z: sum(c * c for c in z) % p, 2)
            assert set(ds.values) == want_delta


def _deviation_config(p, d, seed):
    ctx = FieldContext(p)
    dom = PointDomain(ctx, d)
    rng = random.Random(seed)
    size = rng.randint(1, min(10, dom.size))
    E = _random_subset(dom, size, seed=seed)
    return ctx, dom, E, rng


@pytest.mark.parametrize("k", [2, 3, 4])
def test_nu_deviation_audit_never_fails(k):
    form = QuadraticForm.identity(2)
    spectra = {}
    for seed in range(15):
        ctx, dom, E, rng = _deviation_config(5, 2, seed)
        t = rng.randint(1, 4)
        if t not in spectra:
            spectra[t], _ = euclidean_spectrum(dom, form.value_table(dom), t)
        ladder = FoldLadder(dom, E)
        table = nu_k(ladder, form.value_table(dom), k)
        audit = nu_deviation_audits(ladder, table, k, {t: spectra[t]}, ts=(t,))[0]
        assert audit.ok, audit.as_dict()


def test_nu_deviation_audit_rejects_t_zero():
    dom = PointDomain(F5, 2)
    qvals = QuadraticForm.identity(2).value_table(dom)
    spec, _ = euclidean_spectrum(dom, qvals, 1)
    ladder = FoldLadder(dom, [(0, 1)])
    table = nu_k(ladder, qvals, 2)
    with pytest.raises(ValueError):
        nu_deviation_audits(ladder, table, 2, {0: spec}, ts=(0,))


def test_table_taking_audits_reject_tables_of_wrong_total():
    dom = PointDomain(F5, 1)
    P = diagonal_poly(F5, 1, 2)
    graph, _ = affine_cayley_spectrum(F5, P, 1)
    E, X = FoldLadder(dom, [(1,), (3,)]), [0, 2]
    table = nu_P_k(F5, nu_k(E, eval_poly_table(dom, P), 2), X)
    assert second_moment_audit(E, table, len(X), 2, graph).ok
    with pytest.raises(InconsistentTotalError):
        second_moment_audit(E, table, 1, 2, graph)  # |X| is 2
    shifted = CountTable(q=5, values=table.values + 1)
    with pytest.raises(InconsistentTotalError):
        second_moment_audit(E, shifted, len(X), 2, graph)
    form = QuadraticForm.identity(1)
    qvals = form.value_table(dom)
    spec, _ = euclidean_spectrum(dom, qvals, 1)
    with pytest.raises(InconsistentTotalError):
        nu_deviation_audits(E, nu_k(E, qvals, 3), 2, {1: spec}, ts=(1,))


def test_energy_growth_audit_on_sphere_subsets():
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    graph = cayley_spectrum(F5, v.indices, d=2)
    V = FoldLadder(dom, v.indices)
    rng = random.Random(3)
    for _ in range(10):
        size = rng.randint(1, v.size)
        E = sorted(rng.sample(list(v.points), size))
        audit = energy_growth_audit(V, FoldLadder(dom, E), 4, graph)
        assert audit.ok, audit.as_dict()
        assert audit.detail["k_energy"] <= audit.detail["edge_count"]


def test_energy_growth_correlation_switches_to_big_integers(monkeypatch):
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    graph = cayley_spectrum(F5, v.indices, d=2)
    E = sorted(random.Random(4).sample(list(v.points), 3))
    fast = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)  # correlation and dots in Python ints
    slow = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    assert slow.as_dict() == fast.as_dict()


def _refuse_indicator_transforms(monkeypatch):
    """Refuse every transform of more than two factors, which leaves the limb
    products (two factors each) and refuses the indicator transforms of folds
    of depth 3 or more and of the growth-audit correlation; returns the list
    of `_convolve` calls."""
    real = energy_mod._fold_error_bound
    monkeypatch.setattr(energy_mod, "_fold_error_bound", lambda dom, sizes, norms: (
        1.0 if len(sizes) > 2 else real(dom, sizes, norms)))
    calls = []
    convolve = energy_mod._convolve

    def counting(dom, a, b):
        calls.append((a.sum(), b.sum()))
        return convolve(dom, a, b)

    monkeypatch.setattr(energy_mod, "_convolve", counting)
    return calls


@pytest.mark.parametrize("k", [4, 6])
def test_growth_audit_with_the_indicator_transform_refused_equals_the_unrefused_audit(
        monkeypatch, k):
    ctx = FieldContext(3, 2)
    dom = PointDomain(ctx, 2)
    v = builtin_variety(ctx, "sphere", 2, 1)
    graph = cayley_spectrum(ctx, v.indices, d=2)
    for E in (v.indices[:5], v.indices):
        want = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k,
                                   graph).as_dict()
        with monkeypatch.context() as m:
            calls = _refuse_indicator_transforms(m)
            got = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k, graph)
            assert got.as_dict() == want
        # the correlation 1_{-V} (*) r_{k/2}, of mass |V| |E|^{k/2}
        assert (v.size, len(E) ** (k // 2)) in calls


def test_energy_growth_audit_requires_containment():
    v = builtin_variety(F5, "sphere", 2, 1)
    graph = cayley_spectrum(F5, v.indices, d=2)
    dom = PointDomain(F5, 2)
    with pytest.raises(ValueError):
        energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, [(0, 0)]), 4, graph)


@pytest.mark.parametrize("k", [2, 3])
def test_second_moment_audit_never_fails(k):
    ctx = F5
    dom = PointDomain(ctx, 1)
    P = diagonal_poly(ctx, 1, 2)
    graph, _ = affine_cayley_spectrum(ctx, P, 1)
    rng = random.Random(8)
    for seed in range(15):
        size = rng.randint(1, 5)
        E = FoldLadder(dom, _random_subset(dom, size, seed=100 + seed))
        X = sorted(rng.sample(range(5), rng.randint(1, 5)))
        table = nu_P_k(ctx, nu_k(E, eval_poly_table(dom, P), k), X)
        audit = second_moment_audit(E, table, len(X), k, graph)
        assert audit.ok, audit.as_dict()


# -- certified transform fold and the fold ladder ----------------------------

# (p, n, d): prime fields and extension fields of degree 2 and 3.
FOLD_DOMAINS = [(3, 1, 2), (5, 1, 2), (7, 1, 1), (3, 1, 3), (3, 2, 1), (3, 2, 2),
                (5, 2, 1), (3, 3, 1), (3, 3, 2)]


def _digits(dom, idx):
    """Flat index as its n*d base-p digits: F_q^d as (Z_p)^(nd)."""
    p = dom.ctx.p
    return tuple((int(idx) // p ** i) % p for i in reversed(range(dom.nd)))


def _undigits(dom, digits):
    return sum(c * dom.ctx.p ** i for i, c in enumerate(reversed(digits)))


@given(st.sampled_from(FOLD_DOMAINS), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_transform_fold_equals_roll_fold_and_brute_force(shape, j, data):
    p, n, d = shape
    dom = PointDomain(FieldContext(p, n), d)
    # A multiset: up to 4 points, then up to 2 repeats of them.
    base = data.draw(st.lists(st.integers(0, dom.size - 1), max_size=4))
    repeats = data.draw(st.lists(st.sampled_from(base), max_size=2)) if base else []
    idx = np.array(base + repeats, dtype=np.int64)
    table = np.bincount(idx, minlength=dom.size)
    transform = energy_mod._transform_fold(
        dom, [(energy_mod._norms(table), energy_mod._rfft(dom, table), j)])
    assert transform is not None
    assert np.array_equal(transform, roll_fold(dom, idx, j))
    want = np.zeros(dom.size, dtype=np.int64)
    for digits, count in brute_fold(p, [_digits(dom, i) for i in idx], j).items():
        want[_undigits(dom, digits)] = count
    assert np.array_equal(transform, want)
    points = [point_of(dom, int(i)) for i in idx]
    assert np.array_equal(fold_counts(dom, points, j).values, want)


@given(st.sampled_from(FOLD_DOMAINS),
       st.lists(st.tuples(st.integers(1, 10 ** 6), st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_fold_error_bound_is_never_below_the_complex_transform_bound(shape, factors):
    # Any l2 norm of a nonnegative integer table lies in [sqrt(l1), l1].
    p, n, d = shape
    dom = PointDomain(FieldContext(p, n), d)
    sizes = [s for s, _ in factors]
    norms = [math.sqrt(s) + t * (s - math.sqrt(s)) for s, t in factors]
    assert energy_mod._fold_error_bound(dom, sizes, norms) >= complex_fold_error_bound(
        dom, sizes, norms)


# The transform kernel: FOLD_DOMAINS and F_31^3.
KERNEL_DOMAINS = FOLD_DOMAINS + [(31, 1, 3)]

# The bound on |W~ - W| per entry that `fold_counts` states for the
# twiddles of `energy._dft_matrices`.
TWIDDLE_ERROR = 13.1 * 2.0 ** -53


def _transform_error(dom):
    """The derivation's relative error e = (1 + a)^(nd) - 1 of nd passes,
    a = C p^(3/2) u (see `fold_counts`)."""
    a = energy_mod._DFT_ERROR_CONST * dom.ctx.p ** 1.5 * 2.0 ** -53
    return math.expm1(dom.nd * math.log1p(a))


def _draw_table(dom, data):
    idx = data.draw(st.lists(st.integers(0, dom.size - 1), min_size=1, max_size=40))
    return np.bincount(idx, minlength=dom.size)


def _counting_numpy_rfftn(monkeypatch):
    """Count the calls of np.fft.rfftn, the forward transform above the crossover."""
    calls = []
    original = np.fft.rfftn

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    return calls


def _half_spectrum_tolerance(dom, table):
    # The kernel and the reference each lie within e ||F||_2 = e sqrt(N) ||x||_2
    # of the exact transform.
    return 2 * _transform_error(dom) * math.sqrt(dom.size) * np.linalg.norm(table)


@given(st.sampled_from(KERNEL_DOMAINS), st.data())
@settings(max_examples=60, deadline=None)
def test_forward_kernel_is_the_axis_0_half_of_the_complex_transform(shape, data):
    p, n, d = shape
    dom = PointDomain(FieldContext(p, n), d)
    table = _draw_table(dom, data)
    got = energy_mod._rfft(dom, table)
    want = half_spectrum_reference(dom, table)
    assert got.shape == want.shape == (p // 2 + 1,) + (p,) * (dom.nd - 1)
    assert np.linalg.norm(got - want) <= _half_spectrum_tolerance(dom, table)


@given(st.sampled_from(KERNEL_DOMAINS), st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_kernel_round_trips(shape, data):
    p, n, d = shape
    dom = PointDomain(FieldContext(p, n), d)
    table = _draw_table(dom, data)
    back = energy_mod._irfft(dom, energy_mod._rfft(dom, table))
    assert back.shape == (dom.size,) and back.dtype == np.float64
    # A round trip is the transform fold of one factor, under its bound.
    s, l2 = energy_mod._norms(table)
    assert np.max(np.abs(back - table)) <= energy_mod._fold_error_bound(dom, [s], [l2])
    assert np.array_equal(np.rint(back).astype(np.int64), table)


def test_matmul_and_numpy_fft_branches_agree(monkeypatch):
    dom = PointDomain(FieldContext(5, 2), 2)
    idx = np.array(sorted(random.Random(25).sample(range(dom.size), 12)))
    table = np.bincount(idx, minlength=dom.size)
    hat = energy_mod._rfft(dom, table)
    matmul = FoldLadder(dom, idx)
    folds = [matmul.fold(j).values for j in (2, 3, 4)]
    calls = _counting_numpy_rfftn(monkeypatch)
    monkeypatch.setattr(energy_mod, "_MATMUL_P_MAX", 0)  # every p takes numpy.fft
    numpy_fft = FoldLadder(dom, idx)
    assert all(np.array_equal(numpy_fft.fold(j).values, r) for j, r in zip((2, 3, 4), folds))
    tol = _half_spectrum_tolerance(dom, table)
    assert np.linalg.norm(energy_mod._rfft(dom, table) - hat) <= tol
    assert len(calls) == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="longdouble is no wider than float64")
@pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 211, 373])
def test_twiddles_are_within_the_stated_error_of_a_longdouble_reference(p):
    w = energy_mod._dft_matrices(p)[0]
    pi = 4 * np.arctan(np.longdouble(1))
    angle = 2 * pi * (np.outer(np.arange(p), np.arange(p)) % p).astype(np.longdouble) / p
    err = np.hypot(w.real.astype(np.longdouble) - np.cos(angle),
                   w.imag.astype(np.longdouble) + np.sin(angle))
    assert float(err.max()) <= TWIDDLE_ERROR


def test_direct_sum_error_fits_under_the_stated_constant():
    # Per pass and line: twiddle error plus the inner-product error
    # sqrt(2) gamma_2p, within C p u for every odd p up to the crossover.
    u = 2.0 ** -53
    for p in range(3, energy_mod._MATMUL_P_MAX + 1, 2):
        gamma = 2 * p * u / (1 - 2 * p * u)
        slack = energy_mod._DFT_ERROR_CONST * p * u
        assert TWIDDLE_ERROR + math.sqrt(2) * gamma * (1 + TWIDDLE_ERROR) <= slack, p


def test_folds_above_the_matmul_crossover_run_on_numpy_fft(monkeypatch):
    p = next(m for m in itertools.count(energy_mod._MATMUL_P_MAX + 1) if is_prime(m))
    dom = PointDomain(FieldContext(p), 2)
    idx = np.array(sorted(random.Random(p).sample(range(dom.size), 5)))
    seen = _counting_rfft(monkeypatch)
    calls = _counting_numpy_rfftn(monkeypatch)
    ladder = FoldLadder(dom, idx)
    for j in (2, 3, 4):
        assert np.array_equal(ladder.fold(j).values, roll_fold(dom, idx, j)), j
    assert seen == [5] and len(calls) == 1


def test_failed_certificate_falls_back_to_limb_products(monkeypatch):
    dom = PointDomain(FieldContext(3, 2), 2)
    v = builtin_variety(dom.ctx, "sphere", 2, 1)
    E = sorted(random.Random(4).sample(list(v.points), 6))
    graph = cayley_spectrum(dom.ctx, v.indices, d=2)
    fast = [fold_counts(dom, E, j).values for j in (1, 2, 3, 4)]
    V = FoldLadder(dom, v.indices)
    fast_audit = energy_growth_audit(V, FoldLadder(dom, E), 4, graph)
    calls = _refuse_indicator_transforms(monkeypatch)
    slow = [fold_counts(dom, E, j).values for j in (1, 2, 3, 4)]
    # r_3 = r_2 (*) r_1 and r_4 = r_2 (*) r_2; depths 1 and 2 need no product
    assert calls == [(36, 6), (36, 36)]
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    calls.clear()
    assert energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4,
                               graph) == fast_audit
    assert calls == [(v.size, 36)]  # the correlation 1_{-V} (*) r_2


# (p, n, d, log2 of the patched float-exact limit, fold depth, limbs per factor)
LIMB_CASES = [(5, 1, 2, 53, 4, 1), (5, 1, 2, 12, 4, 2), (5, 1, 2, 10, 4, 3),
              (5, 1, 2, 10, 5, 5), (3, 2, 2, 12, 4, 2), (3, 2, 2, 10, 5, 5),
              (7, 1, 3, 12, 4, 2), (7, 1, 3, 10, 4, 3), (7, 1, 3, 12, 5, 5)]


@pytest.mark.parametrize("python_ints", [False, True])
@pytest.mark.parametrize("p,n,d,exact_bits,depth,limbs", LIMB_CASES)
def test_limb_products_equal_the_roll_fold(monkeypatch, p, n, d, exact_bits, depth,
                                           limbs, python_ints):
    # A smaller float-exact limit refuses wide limb products, so the width
    # shrinks and the limbs multiply; Python ints force the object sums.
    dom = PointDomain(FieldContext(p, n), d)
    idx = np.array(sorted(random.Random(p * n * d).sample(range(dom.size), 8)))
    want = {j: roll_fold(dom, idx, j) for j in range(1, depth + 1)}
    _refuse_indicator_transforms(monkeypatch)
    monkeypatch.setattr(energy_mod, "_FLOAT_EXACT", 1 << exact_bits)
    if python_ints:
        monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)
    seen = []
    split = energy_mod._limbs

    def counting(table, w):
        out = split(table, w)
        seen.append(len(out))
        return out

    monkeypatch.setattr(energy_mod, "_limbs", counting)
    for j in range(1, depth + 1):
        got = fold_counts(dom, idx, j).values
        assert got.dtype == (object if python_ints else np.int64)
        assert np.array_equal(got, want[j]), j
    # The width scan stops at the first width that certifies, which is the
    # narrowest it tries: the most limbs seen are those of the last product.
    assert max(seen) == limbs
    tables = [fold_counts(dom, idx, j).values for j in range(1, depth)]
    assert np.array_equal(energy_mod._convolve(dom, tables[0], tables[-1]), want[depth])
    assert np.array_equal(energy_mod._convolve(dom, tables[-1], tables[0]), want[depth])


def test_convolve_raises_when_no_width_certifies(monkeypatch):
    dom = PointDomain(F5, 2)
    r = fold_counts(dom, _random_subset(dom, 6, seed=1), 2).values
    monkeypatch.setattr(energy_mod, "_fold_error_bound", lambda *args: 0.5)
    with pytest.raises(InvariantError, match="no limb width certifies"):
        energy_mod._convolve(dom, r, r)


def _extra_count(x):
    x.flat[0] += 1.0          # off by an integer: mass check


def _moved_count(x):
    zero, nonzero = np.flatnonzero(np.abs(x) < 0.5)[0], np.flatnonzero(np.abs(x) > 0.5)[0]
    x.flat[zero] -= 1.0       # mass kept, one count negative: sign check
    x.flat[nonzero] += 1.0


def _off_grid(x):
    x.flat[0] += 0.25         # residual beyond the a priori bound


@pytest.mark.parametrize("corrupt", [_extra_count, _moved_count, _off_grid])
def test_corrupted_transform_output_falls_back(monkeypatch, corrupt):
    # The indicator transform refuses its output and falls back to limb
    # products, which refuse theirs at every width: InvariantError.
    dom = PointDomain(F3, 2)
    E = [(0, 1), (1, 2), (2, 2)]
    original = energy_mod._irfft

    def corrupted(dom, hat):
        x = original(dom, hat)
        corrupt(x)
        return x

    monkeypatch.setattr(energy_mod, "_irfft", corrupted)
    with pytest.raises(InvariantError, match="no limb width certifies"):
        fold_counts(dom, E, 2)


def test_corrupted_forward_transform_output_falls_back(monkeypatch):
    # One bin of every forward transform is off, the ladder's held one
    # included: every depth ends in InvariantError, never in a count.
    dom = PointDomain(F3, 2)
    ladder = FoldLadder(dom, [(0, 1), (1, 2), (2, 2)])
    original = energy_mod._rfft

    def corrupted(dom, table):
        x = original(dom, table)
        x.flat[1] += 0.5
        return x

    monkeypatch.setattr(energy_mod, "_rfft", corrupted)
    for j in (2, 3, 4):
        with pytest.raises(InvariantError, match="no limb width certifies"):
            ladder.fold(j)


def test_transform_fold_refuses_masses_beyond_float_precision(monkeypatch):
    monkeypatch.setattr(energy_mod, "_fold_error_bound", lambda *args: 0.0)
    dom = PointDomain(F3, 2)
    idx = np.arange(9, dtype=np.int64)
    indicator = np.ones(9, dtype=np.int64)
    factor = (energy_mod._norms(indicator), energy_mod._rfft(dom, indicator), 17)
    assert energy_mod._transform_fold(dom, [factor]) is None  # 9^17 > 2^53
    r = fold_counts(dom, idx, 17)
    assert r.values.dtype == np.int64 and r.total() == 9 ** 17
    assert set(r.values.tolist()) == {9 ** 16}  # the whole group, evenly


def test_energy_growth_edge_count_matches_brute_force_off_symmetric_varieties():
    # A paraboloid is not symmetric under z -> -z, so the sign of the
    # correlation shift matters here, unlike on a sphere.
    for ctx in (F5, FieldContext(3, 2)):
        dom = PointDomain(ctx, 2)
        v = builtin_variety(ctx, "paraboloid", 2)
        graph = cayley_spectrum(ctx, v.indices, d=2)
        vset = set(v.indices.tolist())
        E = sorted(random.Random(ctx.q).sample(list(v.points), 5))
        idx = dom.as_indices(E)
        want = sum(1 for a in idx for b1 in idx for b2 in idx
                   if int(dom.index_sub(index_add(dom, int(b1), int(b2)), int(a))) in vset)
        # through the conjugate of the V ladder's held transform
        audit = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
        assert audit.detail["edge_count"] == want


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (3, 2, 2), (7, 1, 2)])
def test_spectral_identity_for_even_energies(p, n, d):
    dom = PointDomain(FieldContext(p, n), d)
    E = _random_subset(dom, 7, seed=p * n + d)
    hat = np.abs(character_sum_table(dom, E))
    for k in (2, 4, 6):
        assert lambda_k(FoldLadder(dom, E), k) == pytest.approx(
            float(np.sum(hat ** k)) / dom.size, rel=1e-9)


def test_ladder_builds_each_depth_once(monkeypatch):
    depths = _counting_folds(monkeypatch)
    dom = PointDomain(F5, 2)
    form = QuadraticForm.identity(2)
    graphs = {t: euclidean_spectrum(dom, form.value_table(dom), t)[0] for t in range(1, 5)}
    ladder = FoldLadder(dom, _random_subset(dom, 6, seed=5))
    table = nu_k(ladder, form.value_table(dom), 3)
    delta_set(table)
    nu_deviation_audits(ladder, table, 3, graphs)
    energy_term(ladder, 3)
    lambda_k(ladder, 2)
    energy_recursion_ratio(ladder, 4)
    assert sorted(depths) == [1, 2, 3]
    assert len(ladder) == 6


def _counting_folds(monkeypatch):
    depths = []
    original = energy_mod.fold_counts

    def counting(dom, E, j):
        depths.append(j)
        return original(dom, E, j)

    monkeypatch.setattr(energy_mod, "fold_counts", counting)
    return depths


def test_refused_folds_are_composed_from_the_asking_ladder(monkeypatch):
    dom = PointDomain(F5, 2)
    idx = dom.as_indices(_random_subset(dom, 6, seed=5))
    calls = _refuse_indicator_transforms(monkeypatch)
    depths = _counting_folds(monkeypatch)
    ladder = FoldLadder(dom, idx)
    ladder.fold(2)
    r4 = ladder.fold(4).values
    assert depths == [2, 4]            # r_4 = r_2 (*) r_2, with r_2 the ladder's own
    assert calls == [(36, 36)]
    depths.clear()
    r5 = energy_mod.fold_counts(dom, idx, 5).values
    assert sorted(depths) == [1, 2, 3, 5]
    assert np.array_equal(r4, roll_fold(dom, idx, 4))
    assert np.array_equal(r5, roll_fold(dom, idx, 5))


def _counting_rfft(monkeypatch):
    """Count forward transforms; returns the list of the nonzero-cell count of
    each transformed table."""
    seen = []
    original = energy_mod._rfft

    def counting(dom, table):
        seen.append(int(np.count_nonzero(table)))
        return original(dom, table)

    monkeypatch.setattr(energy_mod, "_rfft", counting)
    return seen


def test_ladder_transforms_its_indicator_once(monkeypatch):
    dom = PointDomain(FieldContext(31), 3)
    idx = np.array(sorted(random.Random(31).sample(range(dom.size), 200)), dtype=np.int64)
    seen = _counting_rfft(monkeypatch)
    ladder = FoldLadder(dom, idx)
    for j in (2, 3, 4):
        assert ladder.fold(j).total() == 200 ** j
    assert seen == [200]


def test_energy_plan_transforms_the_variety_once_and_each_audited_subset_once(
        monkeypatch):
    # The energy-f27 plan of the benchmark, one seed.
    plan = ExperimentPlan(p=3, n=3, d=3, family="sphere", j=1, ks=(2, 3, 4),
                          sizes=(1, 2, 4), trials=2, seed=1)
    seen = _counting_rfft(monkeypatch)
    report = energy_bound_experiment(plan)
    audited = [r["size"] for r in report.records if "k4_audit_ok" in r]
    assert audited
    v_size = builtin_variety(FieldContext(3, 3), "sphere", 3, 1).size
    assert sorted(seen) == sorted([v_size] + audited)


def test_limb_square_transforms_each_limb_once_and_nothing_at_refused_widths(
        monkeypatch):
    dom = PointDomain(F5, 2)
    idx = np.array(sorted(random.Random(7).sample(range(dom.size), 8)))
    r = fold_counts(dom, idx, 2).values
    widths = []
    split = energy_mod._limbs

    def counting(table, w):
        out = split(table, w)
        widths.append((w, len(out)))
        return out

    monkeypatch.setattr(energy_mod, "_limbs", counting)
    monkeypatch.setattr(energy_mod, "_FLOAT_EXACT", 1 << 10)  # refuses wide limbs
    seen = _counting_rfft(monkeypatch)
    assert np.array_equal(energy_mod._convolve(dom, r, r), roll_fold(dom, idx, 4))
    assert len(widths) > 1                     # some widths were refused
    accepted_limbs = widths[-1][1]
    assert accepted_limbs > 1 and len(seen) == accepted_limbs


# (p, n, d) of F_5^2, F_9^2 and F_7^3
BINNING_DOMAINS = [(5, 1, 2), (3, 2, 2), (7, 1, 3)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("by", ["Q", "P"])
@pytest.mark.parametrize("p,n,d", BINNING_DOMAINS)
def test_delta_and_nu_P_read_the_binned_table_as_the_references_do(p, n, d, by, k):
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    if by == "Q":
        values = QuadraticForm.identity(d).value_table(dom)
    else:
        values = eval_poly_table(dom, diagonal_poly(ctx, d, 3, tuple(range(1, d + 1))))
    rng = random.Random(p * n * d + k)
    subsets = [[], rng.sample(range(dom.size), 5)]
    shift_sets = [[0], [1, 2, 1, 0, 2], rng.sample(range(ctx.q), 3)]
    for idx in subsets:
        E = FoldLadder(dom, np.array(sorted(idx), dtype=np.int64))
        table = nu_k(E, values, k)
        r = E.fold(k).values
        ds = delta_set(table)
        assert (ds.values, ds.covers_Fq_star, ds.covers_Fq) == delta_reference(ctx.q, values, r)
        for X in shift_sets:
            got = nu_P_k(ctx, table, X)
            assert [int(v) for v in got.values] == nu_P_reference(ctx, values, r, X)
            assert got.total() == len(set(X)) * len(E) ** k


def test_single_t_audits_equal_the_full_audit_list():
    dom = PointDomain(F5, 2)
    form = QuadraticForm.identity(2)
    graphs = {t: euclidean_spectrum(dom, form.value_table(dom), t)[0] for t in range(1, 5)}
    E = FoldLadder(dom, _random_subset(dom, 6, seed=6))
    for k in (2, 3, 4):
        table = nu_k(E, form.value_table(dom), k)
        audits = nu_deviation_audits(E, table, k, graphs)
        assert [nu_deviation_audits(E, table, k, {t: graphs[t]}, ts=(t,))[0]
                for t in range(1, 5)] == audits


def test_invariant_checks_survive_optimized_mode():
    script = """
import sys
import numpy as np
import fqspectra.energy as energy
from fqspectra.domains import PointDomain
from fqspectra.errors import InvariantError
from fqspectra.field import FieldContext

assert False, "asserts must be stripped under -O"
# Every limb product returns zeros, so the recombined mass is 0, not 3 * 3.
energy._transform_fold = lambda dom, factors: np.zeros(dom.size, dtype=np.int64)
table = np.bincount([1, 5, 5], minlength=9)
try:
    energy._convolve(PointDomain(FieldContext(3), 2), table, table)
except InvariantError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "fold mass conservation violated" in proc.stdout
