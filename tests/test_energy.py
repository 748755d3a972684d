import functools
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

import fqspectra.domains as domains_mod
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
    FoldLadder,
    _exact_total,
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
    character_sums_direct,
    complex_fold_error_bound,
    delta_reference,
    eval_quadratic,
    half_spectrum_reference,
    index_add,
    inv,
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
    assert _exact_total(r) == 16


def test_fold_singleton_origin():
    for j in (1, 2, 5):
        r = fold_counts(DOM32, [(0, 0)], j)
        assert r[0] == 1 and _exact_total(r) == 1


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
    assert _exact_total(fold_counts(DOM32, E, j)) == size ** j


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
    assert _exact_total(table) == len(idx) ** k


def test_big_integer_path_matches_int64(monkeypatch):
    E = _random_subset(DOM32, 5, seed=2)
    fast = fold_counts(DOM32, E, 3)
    assert fast.dtype == np.int64
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)
    slow = fold_counts(DOM32, E, 3)
    assert slow.dtype == object
    assert [int(v) for v in slow] == [int(v) for v in fast]
    assert lambda_k(FoldLadder(DOM32, E), 6) == sum(int(v) ** 2 for v in fast)


def test_full_f101_sphere_fold_of_depth_4_is_exact():
    # The indicator transform refuses here (B > 1/2), so r_4 = r_2 (*) r_2
    # comes from limb products.
    ctx = FieldContext(101)
    dom = PointDomain(ctx, 3)
    v = builtin_variety(ctx, "sphere", 3, 1)
    assert v.size == 10302
    r2 = fold_counts(dom, v.indices, 2)
    r4 = fold_counts(dom, v.indices, 4)
    assert r4.dtype == np.int64
    assert _exact_total(r4) == 10302 ** 4
    # The sphere is symmetric, so r_4(0) = sum_z r_2(z) r_2(-z) = Lambda_4.
    assert r4[0] == int(np.dot(r2, r2))


def test_transform_fold_is_capped_by_table_max(monkeypatch):
    dom = PointDomain(F5, 2)
    E = _random_subset(dom, 6, seed=2)
    calls = []
    monkeypatch.setattr(energy_mod, "_transform_fold", lambda *args: calls.append(args))
    monkeypatch.setattr(domains_mod, "TABLE_MAX", dom.size - 1)
    assert fold_counts(dom, E, 1).tolist() == np.bincount(
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


@pytest.mark.parametrize("k", [3, 5])
def test_growth_audit_and_recursion_ratio_reject_odd_k(k):
    V = FoldLadder(DOM32, S1_F3.indices)
    graph = cayley_spectrum(F3, S1_F3.indices, d=2)
    with pytest.raises(OddKError, match=f"got {k}$"):
        energy_growth_audit(V, FoldLadder(DOM32, S1_F3.indices[:2]), k, graph)
    with pytest.raises(OddKError, match=f"got {k}$"):
        energy_recursion_ratio(V, k)


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
        assert _exact_total(table) == dom.size ** k == 3 ** (2 * k)


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
    assert fast.dtype == np.int64 and slow.dtype == object
    assert [int(v) for v in slow] == [int(v) for v in fast]


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
        assert a.dtype == np.int64 and b.dtype == object
        assert [int(v) for v in b] == [int(v) for v in a]
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
    assert (ds.values, *flags) == delta_reference(dom.ctx.q, qvals, ladder.fold(k))
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
    table = np.full(5, 6, dtype=np.int64)  # |X||E|^k = 30 spread evenly
    assert second_moment(table) == 5 * 36
    bound = sumset_lower_bound(table, 5, 6, 1)
    assert bound == Fraction(5)  # q is the maximum possible


def test_second_moment_concentrated_gives_one():
    table = np.zeros(5, dtype=np.int64)
    table[2] = 8  # |X| = 2, |E| = 2, k = 2
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
    assert np.flatnonzero(table).tolist() == [0, 1]


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
        assert not nu_P_k(ctx, nu_k(empty, values, 2), [0, 1, 1]).any()


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
            assert tuple(np.flatnonzero(table).tolist()) == want


def test_sumset_inconsistent_total_rejected():
    table = np.zeros(3, dtype=np.int64)
    table[0] = 7
    with pytest.raises(InconsistentTotalError):
        sumset_lower_bound(table, 1, 2, 2)


def test_sumset_bound_of_an_all_zero_table_is_zero():
    # An empty E has nu_{P,k} = 0 everywhere, so no sum of squares to divide by.
    bound = sumset_lower_bound(np.zeros(5, dtype=np.int64), 2, 0, 2)
    assert bound == 0 and type(bound) is Fraction


def test_energy_term_odd_k_products():
    ladder = FoldLadder(DOM32, S1_F3.points)
    assert energy_term(ladder, 3) == (4, 36)
    lo, hi = energy_term(ladder, 5)
    assert lo == 36 and hi == lambda_k(ladder, 6)
    assert energy_term(ladder, 4) == (36, 36)


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
        assert audit.ok, audit


def test_nu_deviation_audit_rejects_t_zero():
    dom = PointDomain(F5, 2)
    qvals = QuadraticForm.identity(2).value_table(dom)
    spec, _ = euclidean_spectrum(dom, qvals, 1)
    ladder = FoldLadder(dom, [(0, 1)])
    table = nu_k(ladder, qvals, 2)
    with pytest.raises(ValueError):
        nu_deviation_audits(ladder, table, 2, {0: spec}, ts=(0,))


def test_nu_deviation_audit_reads_t_as_a_field_element():
    # Over F_5 an integer names its residue: t = 6 is level 1, and t = 5 is 0.
    dom = PointDomain(F5, 2)
    qvals = QuadraticForm.identity(2).value_table(dom)
    spec, _ = euclidean_spectrum(dom, qvals, 1)
    ladder = FoldLadder(dom, _random_subset(dom, 6, seed=2))
    table = nu_k(ladder, qvals, 2)
    assert (nu_deviation_audits(ladder, table, 2, {1: spec}, ts=[6])
            == nu_deviation_audits(ladder, table, 2, {1: spec}, ts=[1]))
    with pytest.raises(ValueError, match="t != 0"):
        nu_deviation_audits(ladder, table, 2, {1: spec}, ts=[5])
    # Over F_9 only 0..8 are encodings: 10 is no element, not a missing graph.
    dom9 = PointDomain(FieldContext(3, 2), 2)
    qvals9 = QuadraticForm.identity(2).value_table(dom9)
    spec9, _ = euclidean_spectrum(dom9, qvals9, 1)
    ladder9 = FoldLadder(dom9, _random_subset(dom9, 6, seed=3))
    table9 = nu_k(ladder9, qvals9, 2)
    for t in (9, 10, -1):
        with pytest.raises(ValueError, match="not an element of F_9"):
            nu_deviation_audits(ladder9, table9, 2, {1: spec9}, ts=[t])


def test_nu_deviations_read_int64_counts_as_python_ints():
    # A multiset of 40,000 points on F_5^2 at k = 4: |E|^4 < 2^62 keeps the
    # nu table int64, but count * q^d passes 2^63, so a count read as an
    # np.int64 would wrap in the main term's numerator.
    dom = PointDomain(F5, 2)
    E = FoldLadder(dom, np.random.default_rng(1).integers(0, dom.size, 40_000))
    qvals = QuadraticForm.identity(2).value_table(dom)
    table = nu_k(E, qvals, 4)
    assert table.dtype == np.int64 and int(table.max()) * dom.size >= 2 ** 63
    graphs = {t: euclidean_spectrum(dom, qvals, t)[0] for t in range(1, 5)}
    audits = nu_deviation_audits(E, table, 4, graphs)
    assert len(audits) == 4
    for t, a in zip(range(1, 5), audits):
        nu_t = a.count
        assert type(nu_t) is int and nu_t == int(table[t])
        main = Fraction(graphs[t].degree * len(E) ** 4, dom.size)
        assert a.deviation == float(abs(nu_t - main))


def test_table_taking_audits_reject_tables_of_wrong_total():
    dom = PointDomain(F5, 1)
    P = diagonal_poly(F5, 1, 2)
    graph, _ = affine_cayley_spectrum(F5, 1, 2)
    E, X = FoldLadder(dom, [(1,), (3,)]), [0, 2]
    table = nu_P_k(F5, nu_k(E, eval_poly_table(dom, P), 2), X)
    assert second_moment_audit(E, table, len(X), 2, graph).ok
    with pytest.raises(InconsistentTotalError):
        second_moment_audit(E, table, 1, 2, graph)  # |X| is 2
    shifted = table + 1
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
        E = FoldLadder(dom, sorted(rng.sample(list(v.points), size)))
        audit = energy_growth_audit(V, E, 4, graph)
        assert audit.ok, audit
        assert lambda_k(E, 4) <= audit.count


def test_energy_growth_correlation_switches_to_big_integers(monkeypatch):
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    graph = cayley_spectrum(F5, v.indices, d=2)
    E = sorted(random.Random(4).sample(list(v.points), 3))
    fast = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    # A refused certificate at the origin leaves the edge count to the
    # correlation 1_{-V} (*) r_2, of mass |V| |E|^2 >= _INT64_SAFE here.
    monkeypatch.setattr(energy_mod, "_at_zero_error_bound", lambda dom, sizes, norms: 1.0)
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)  # correlation and dots in Python ints
    neg_v = np.bincount(dom.index_neg(v.indices), minlength=dom.size)
    correlations = []
    convolve = energy_mod._convolve

    def recording(dom, a, b):
        out = convolve(dom, a, b)
        if np.array_equal(a, neg_v):
            correlations.append(out)
        return out

    monkeypatch.setattr(energy_mod, "_convolve", recording)
    slow = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    assert slow == fast
    assert len(correlations) == 1 and correlations[0].dtype == object


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
        want = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k, graph)
        with monkeypatch.context() as m:
            calls = _refuse_indicator_transforms(m)
            got = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k, graph)
            assert got == want
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
    graph, _ = affine_cayley_spectrum(ctx, 1, 2)
    rng = random.Random(8)
    for seed in range(15):
        size = rng.randint(1, 5)
        E = FoldLadder(dom, _random_subset(dom, size, seed=100 + seed))
        X = sorted(rng.sample(range(5), rng.randint(1, 5)))
        table = nu_P_k(ctx, nu_k(E, eval_poly_table(dom, P), k), X)
        audit = second_moment_audit(E, table, len(X), k, graph)
        assert audit.ok, audit


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
        dom, [energy_mod._norms(table)] * j, [energy_mod._rfft(dom, table)] * j)
    assert transform is not None
    assert np.array_equal(transform, roll_fold(dom, idx, j))
    want = np.zeros(dom.size, dtype=np.int64)
    for digits, count in brute_fold(p, [_digits(dom, i) for i in idx], j).items():
        want[_undigits(dom, digits)] = count
    assert np.array_equal(transform, want)
    points = [point_of(dom, int(i)) for i in idx]
    assert np.array_equal(fold_counts(dom, points, j), want)


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
    """The derivation's relative error e = prod (1 + a_L) - 1 over the passes,
    a_L = C L^(3/2) u for a pass along lines of length L (see `fold_counts`):
    p = 3 takes its axes in pairs, L = 9, and a last single axis when nd is
    odd; every other p takes them one by one, L = p."""
    p = dom.ctx.p
    lines = [9] * (dom.nd // 2) + [3] * (dom.nd % 2) if p == 3 else [p] * dom.nd
    return math.expm1(sum(math.log1p(energy_mod._DFT_ERROR_CONST * L ** 1.5 * 2.0 ** -53)
                          for L in lines))


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
    folds = [matmul.fold(j) for j in (2, 3, 4)]
    calls = _counting_numpy_rfftn(monkeypatch)
    monkeypatch.setattr(energy_mod, "_MATMUL_P_MAX", 0)  # every p takes numpy.fft
    numpy_fft = FoldLadder(dom, idx)
    assert all(np.array_equal(numpy_fft.fold(j), r) for j, r in zip((2, 3, 4), folds))
    tol = _half_spectrum_tolerance(dom, table)
    assert np.linalg.norm(energy_mod._rfft(dom, table) - hat) <= tol
    assert len(calls) == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="longdouble is no wider than float64")
@pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 211, 373])
def test_twiddles_are_within_the_stated_error_of_a_longdouble_reference(p):
    # Every pass matrix of p: one axis, and for p = 3 also a pair of axes.
    pi = 4 * np.arctan(np.longdouble(1))
    for a in set(energy_mod._axis_groups(p, 3)):
        w = energy_mod._dft_matrices(p, a)[0]
        digits = np.arange(p ** a)[:, None] // p ** np.arange(a - 1, -1, -1) % p
        angle = 2 * pi * ((digits @ digits.T) % p).astype(np.longdouble) / p
        err = np.hypot(w.real.astype(np.longdouble) - np.cos(angle),
                       w.imag.astype(np.longdouble) + np.sin(angle))
        assert float(err.max()) <= TWIDDLE_ERROR, a


def test_direct_sum_error_fits_under_the_stated_constant():
    # Per pass and line: twiddle error plus the inner-product error
    # sqrt(2) gamma_2p, within C p u for every odd p up to the crossover.
    u = 2.0 ** -53
    for p in range(3, energy_mod._MATMUL_P_MAX + 1, 2):
        gamma = 2 * p * u / (1 - 2 * p * u)
        slack = energy_mod._DFT_ERROR_CONST * p * u
        assert TWIDDLE_ERROR + math.sqrt(2) * gamma * (1 + TWIDDLE_ERROR) <= slack, p


# (p, n, d) over (Z_3)^(nd): F_3^1 (a group shorter than 2), F_3^3 and
# F_27^1 (odd nd, a last single axis), F_9^2, F_81^1 and F_27^3.
GROUPED_DOMAINS = [(3, 1, 1), (3, 1, 3), (3, 3, 1), (3, 2, 2), (3, 4, 1), (3, 3, 3)]


def _counting_passes(monkeypatch):
    """Record the axis count a of every pass matrix the transforms ask for;
    each direct pass asks once."""
    seen = []
    matrices = energy_mod._dft_matrices

    def counting(p, a):
        seen.append(a)
        return matrices(p, a)

    monkeypatch.setattr(energy_mod, "_dft_matrices", counting)
    return seen


@pytest.mark.parametrize("p,n,d", GROUPED_DOMAINS)
def test_grouped_kernels_equal_the_complex_transform_in_pairs_of_axes(monkeypatch, p, n, d):
    dom = PointDomain(FieldContext(p, n), d)
    rng = random.Random(p * n * d)
    table = np.bincount([rng.randrange(dom.size) for _ in range(40)], minlength=dom.size)
    want = half_spectrum_reference(dom, table)
    pairs = [2] * (dom.nd // 2) + [1] * (dom.nd % 2)
    seen = _counting_passes(monkeypatch)
    got = energy_mod._rfft(dom, table)
    assert seen == pairs                        # ceil(nd / 2) passes, in axis order
    assert got.shape == want.shape == (2,) + (3,) * (dom.nd - 1)
    tol = _half_spectrum_tolerance(dom, table)
    assert np.linalg.norm(got - want) <= tol
    seen.clear()
    back = energy_mod._irfft(dom, want)
    assert sorted(seen) == sorted(pairs)
    # The reference is within tol of the exact spectrum, which the inverse,
    # scaled by 1/N, maps at most tol / sqrt(N) away in 2-norm.
    s, l2 = energy_mod._norms(table)
    slack = tol / math.sqrt(dom.size) + energy_mod._fold_error_bound(dom, [s], [l2])
    assert np.max(np.abs(back - table)) <= slack
    assert np.array_equal(np.rint(energy_mod._irfft(dom, got)).astype(np.int64), table)


def test_only_p_3_groups_its_axes():
    assert energy_mod._axis_groups(3, 9) == (2, 2, 2, 2, 1)
    assert energy_mod._axis_groups(3, 4) == (2, 2)
    assert energy_mod._axis_groups(3, 1) == (1,)
    for p in (5, 7, 31, 373):
        assert energy_mod._axis_groups(p, 3) == (1, 1, 1)


def _single_axis_matrices(p):
    """`_dft_matrices` as it was before axes were grouped: the length-p pass."""
    g = 2 * (np.outer(np.arange(p), np.arange(p)) % p)
    g[g > p] -= 2 * p
    angle = np.pi * g / p
    w = np.empty((p, p), dtype=np.complex128)
    w.real = np.cos(angle)
    w.imag = -np.sin(angle)
    h = p // 2 + 1
    weights = np.full(h, 2.0)
    weights[0] = 1.0
    return (w, w.conj(), np.ascontiguousarray(w[:h].T).view(np.float64),
            np.ascontiguousarray(w[:, :h] * weights).view(np.float64))


@pytest.mark.parametrize("p", [5, 7, 31, 373])
def test_single_axis_matrices_are_unchanged_bit_for_bit(p):
    for got, want in zip(energy_mod._dft_matrices(p, 1), _single_axis_matrices(p), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_fold_error_bound_charges_each_pass_its_line_length():
    # F_27^3: four 9-point passes and one 3-point pass, against nine 3-point ones.
    dom = PointDomain(FieldContext(3, 3), 3)
    u = 2.0 ** -53
    grouped = (1 + 8.0 * 9 ** 1.5 * u) ** 4 * (1 + 8.0 * 3 ** 1.5 * u) - 1
    single = (1 + 8.0 * 3 ** 1.5 * u) ** 9 - 1
    assert _transform_error(dom) == pytest.approx(grouped, rel=1e-12)
    assert grouped > single
    sizes, norms = [561] * 4, [math.sqrt(561)] * 4
    bound = energy_mod._fold_error_bound(dom, sizes, norms)
    assert 2.9e-3 < bound < 3.1e-3


def test_held_power_spectrum_is_read_only_and_taken_once_at_the_first_origin_read():
    ctx = FieldContext(3, 3)
    dom = PointDomain(ctx, 3)
    v = builtin_variety(ctx, "sphere", 3, 1)
    graph = cayley_spectrum(ctx, v.indices, d=3)
    idx = np.array(sorted(random.Random(27).sample(v.indices.tolist(), 40)))
    ladder = FoldLadder(dom, idx)
    hat = ladder.transform()
    assert "power" not in vars(ladder)          # the transform takes none
    ladder.energy(4)
    power = vars(ladder)["power"]
    assert not power.flags.writeable and power.dtype == np.float64
    with pytest.raises(ValueError):
        power[0, 0] = 1.0
    assert np.array_equal(power, hat.real ** 2 + hat.imag ** 2)
    assert np.allclose(power, np.abs(hat) ** 2, rtol=1e-12, atol=0)
    ladder.energy(6)
    energy_growth_audit(FoldLadder(dom, v.indices), ladder, 4, graph)
    assert ladder.power is power


def test_origin_reads_are_real_sums_with_no_complex_product(monkeypatch):
    ctx = FieldContext(3, 3)
    dom = PointDomain(ctx, 3)
    v = builtin_variety(ctx, "sphere", 3, 1)
    graph = cayley_spectrum(ctx, v.indices, d=3)
    idx = np.array(sorted(random.Random(3).sample(v.indices.tolist(), 30)))
    want = (lambda_k(FoldLadder(dom, idx), 4), lambda_k(FoldLadder(dom, idx), 6),
            energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, idx), 4, graph))
    integrands = []
    original = energy_mod._fold_at_zero

    def recording(dom, norms, integrand):
        integrands.append(integrand.dtype)
        return original(dom, norms, integrand)

    def no_product(hats):
        raise AssertionError("complex product on the origin path")

    monkeypatch.setattr(energy_mod, "_fold_at_zero", recording)
    monkeypatch.setattr(energy_mod, "_product", no_product)
    E = FoldLadder(dom, idx)
    got = (E.energy(4), E.energy(6),
           energy_growth_audit(FoldLadder(dom, v.indices), E, 4, graph))
    assert got == want
    assert integrands == [np.float64] * 3       # Lambda_4, Lambda_6, the edge count


def test_folds_above_the_matmul_crossover_run_on_numpy_fft(monkeypatch):
    p = next(m for m in itertools.count(energy_mod._MATMUL_P_MAX + 1) if is_prime(m))
    dom = PointDomain(FieldContext(p), 2)
    idx = np.array(sorted(random.Random(p).sample(range(dom.size), 5)))
    seen = _counting_rfft(monkeypatch)
    calls = _counting_numpy_rfftn(monkeypatch)
    ladder = FoldLadder(dom, idx)
    for j in (2, 3, 4):
        assert np.array_equal(ladder.fold(j), roll_fold(dom, idx, j)), j
    assert seen == [5] and len(calls) == 1


def test_failed_certificate_falls_back_to_limb_products(monkeypatch):
    dom = PointDomain(FieldContext(3, 2), 2)
    v = builtin_variety(dom.ctx, "sphere", 2, 1)
    E = sorted(random.Random(4).sample(list(v.points), 6))
    graph = cayley_spectrum(dom.ctx, v.indices, d=2)
    fast = [fold_counts(dom, E, j) for j in (1, 2, 3, 4)]
    V = FoldLadder(dom, v.indices)
    fast_audit = energy_growth_audit(V, FoldLadder(dom, E), 4, graph)
    calls = _refuse_indicator_transforms(monkeypatch)
    slow = [fold_counts(dom, E, j) for j in (1, 2, 3, 4)]
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
        got = fold_counts(dom, idx, j)
        assert got.dtype == (object if python_ints else np.int64)
        assert np.array_equal(got, want[j]), j
    # The width scan stops at the first width that certifies, which is the
    # narrowest it tries: the most limbs seen are those of the last product.
    assert max(seen) == limbs
    tables = [fold_counts(dom, idx, j) for j in range(1, depth)]
    assert np.array_equal(energy_mod._convolve(dom, tables[0], tables[-1]), want[depth])
    assert np.array_equal(energy_mod._convolve(dom, tables[-1], tables[0]), want[depth])


def test_convolve_raises_when_no_width_certifies(monkeypatch):
    dom = PointDomain(F5, 2)
    r = fold_counts(dom, _random_subset(dom, 6, seed=1), 2)
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
    norms, hat = energy_mod._norms(indicator), energy_mod._rfft(dom, indicator)
    assert energy_mod._transform_fold(dom, [norms] * 17, [hat] * 17) is None  # 9^17 > 2^53
    r = fold_counts(dom, idx, 17)
    assert r.dtype == np.int64 and _exact_total(r) == 9 ** 17
    assert set(r.tolist()) == {9 ** 16}  # the whole group, evenly


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
        assert audit.count == want


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
    assert sorted(depths) == [1, 3]     # Lambda_4 is read off the half spectrum
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
    r4 = ladder.fold(4)
    assert depths == [2, 4]            # r_4 = r_2 (*) r_2, with r_2 the ladder's own
    assert calls == [(36, 36)]
    depths.clear()
    r5 = energy_mod.fold_counts(dom, idx, 5)
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
        assert _exact_total(ladder.fold(j)) == 200 ** j
    assert seen == [200]


@pytest.mark.parametrize("multiset", [False, True])
def test_ladder_bins_its_indicator_once(monkeypatch, multiset):
    dom = PointDomain(F5, 2)
    idx = np.array(random.Random(11).sample(range(dom.size), 7), dtype=np.int64)
    if multiset:
        idx = np.concatenate([idx, idx[:3], idx[:1]])
    binned = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        if np.array_equal(x, idx):
            binned.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    ladder = FoldLadder(dom, idx)
    folds = [ladder.fold(j) for j in (1, 2, 3, 4)]
    energies = [ladder.energy(4), ladder.energy(6)]
    ladder.transform()
    ladder.norms
    assert binned == [len(idx)]
    for j, r in enumerate(folds, 1):
        assert np.array_equal(r, roll_fold(dom, idx, j))
    assert energies == [int(np.dot(r, r)) for r in folds[1:3]]


def test_held_indicator_is_the_read_only_depth_one_table():
    dom = PointDomain(F5, 2)
    idx = np.array([3, 17, 3, 24, 0], dtype=np.int64)
    ladder = FoldLadder(dom, idx)
    assert not ladder.indicator.flags.writeable
    with pytest.raises(ValueError):
        ladder.indicator[0] = 1
    r1 = ladder.fold(1)
    assert np.array_equal(r1, np.bincount(idx, minlength=dom.size))
    assert r1 is ladder.indicator
    assert ladder.norms == (5, math.sqrt(2 ** 2 + 1 + 1 + 1))


@pytest.mark.parametrize("python_ints", [False, True])
def test_every_table_a_ladder_holds_is_read_only(python_ints, monkeypatch):
    # A write into a held depth would corrupt every deeper fold composed from it.
    if python_ints:
        monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)
    dom = PointDomain(F5, 2)
    ladder = FoldLadder(dom, _random_subset(dom, 6, seed=4))
    for j in (1, 2, 3, 4):
        table = ladder.fold(j)
        assert table.dtype == (object if python_ints else np.int64)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


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
    r = fold_counts(dom, idx, 2)
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
        r = E.fold(k)
        ds = delta_set(table)
        assert (ds.values, ds.covers_Fq_star, ds.covers_Fq) == delta_reference(ctx.q, values, r)
        for X in shift_sets:
            got = nu_P_k(ctx, table, X)
            assert [int(v) for v in got] == nu_P_reference(ctx, values, r, X)
            assert _exact_total(got) == len(set(X)) * len(E) ** k


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
energy._transform_fold = lambda dom, norms, hats: np.zeros(dom.size, dtype=np.int64)
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


# -- energies and the growth audit's edge count at the origin ------------------

# (p, n, d) of F_5^2, F_9^2, F_27^3 and F_31^3
ORIGIN_DOMAINS = [(5, 1, 2), (3, 2, 2), (3, 3, 3), (31, 1, 3)]


def _counting_at_zero(monkeypatch):
    """Record what every `_fold_at_zero` call returns (None for a refusal)."""
    seen = []
    original = energy_mod._fold_at_zero

    def counting(dom, norms, integrand):
        seen.append(original(dom, norms, integrand))
        return seen[-1]

    monkeypatch.setattr(energy_mod, "_fold_at_zero", counting)
    return seen


def _fold_path_only(monkeypatch):
    monkeypatch.setattr(energy_mod, "_fold_at_zero", lambda dom, norms, integrand: None)


def _brute_energy(dom, idx, k):
    """sum_z r_{k/2}(z)^2, the k/2-fold sums of idx counted one tuple at a time."""
    sums = Counter()
    for tup in itertools.product([int(i) for i in idx], repeat=k // 2):
        z = 0
        for i in tup:
            z = index_add(dom, z, i)
        sums[z] += 1
    return sum(c * c for c in sums.values())


def _origin_subsets(dom, seed):
    """Flat index arrays: a set, a multiset and a larger set."""
    rng = random.Random(seed)
    subsets = [rng.sample(range(dom.size), 4), rng.choices(range(dom.size), k=4) * 2,
               rng.sample(range(dom.size), min(30, dom.size // 2))]
    return [np.array(sorted(idx), dtype=np.int64) for idx in subsets]


@pytest.mark.parametrize("p,n,d", ORIGIN_DOMAINS)
def test_energies_at_the_origin_equal_the_fold_path_and_brute_force(monkeypatch, p, n, d):
    dom = PointDomain(FieldContext(p, n), d)
    subsets = _origin_subsets(dom, p * n * d)
    with monkeypatch.context() as m:
        _fold_path_only(m)
        want = {(i, k): lambda_k(FoldLadder(dom, idx), k)
                for i, idx in enumerate(subsets) for k in (4, 6, 8)}
    seen = _counting_at_zero(monkeypatch)
    for i, idx in enumerate(subsets):
        for k in (4, 6, 8):
            got = lambda_k(FoldLadder(dom, idx), k)
            assert got == want[i, k]
            if len(idx) <= 8 and k <= 6:
                assert got == _brute_energy(dom, idx, k)
    if n == 1:
        assert want[0, 4] == brute_lambda(p, [point_of(dom, i) for i in subsets[0]], 4)
    # the small subsets certify at every k; 30 points refuse only at k = 8
    # over F_31^3, where the a priori bound passes 1/2
    refused = [key for key, value in zip(want, seen) if value is None]
    assert refused == ([(2, 8)] if p == 31 else [])


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("p,n,d,family", [(5, 1, 2, "sphere"), (3, 2, 2, "sphere"),
                                          (5, 1, 2, "paraboloid"), (3, 3, 3, "sphere")])
def test_growth_edge_count_at_the_origin_equals_the_correlation(monkeypatch, p, n, d, family,
                                                                k):
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    v = builtin_variety(ctx, family, d, 1)
    graph = cayley_spectrum(ctx, v.indices, d=d)
    rng = random.Random(p * n * d + k)
    subsets = [np.array(sorted(rng.sample(v.indices.tolist(), min(5, v.size)))), v.indices]
    for E in subsets:
        with monkeypatch.context() as m:
            _fold_path_only(m)
            want = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k,
                                       graph)
        with monkeypatch.context() as m:
            seen = _counting_at_zero(m)
            got = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), k, graph)
        assert got == want
        # the edge count certifies on the small subsets; |V|^6 passes 2^53 on F_27^3
        assert seen[0] == (None if (p ** n, k, len(E)) == (27, 6, v.size) else got.count)


def test_growth_correlation_fall_back_switches_to_big_integers(monkeypatch):
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    graph = cayley_spectrum(F5, v.indices, d=2)
    E = sorted(random.Random(4).sample(list(v.points), 3))
    want = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    _fold_path_only(monkeypatch)
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)  # correlation and dots in Python ints
    neg_v = np.bincount(dom.index_neg(v.indices), minlength=dom.size)
    correlations = []
    convolve = energy_mod._convolve

    def recording(dom, a, b):
        out = convolve(dom, a, b)
        if np.array_equal(a, neg_v):
            correlations.append(out)
        return out

    monkeypatch.setattr(energy_mod, "_convolve", recording)
    got = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, E), 4, graph)
    assert got == want
    # The edge count refused at the origin, so the correlation 1_{-V} (*) r_2
    # was built by limb products and held in Python ints.
    assert len(correlations) == 1 and correlations[0].dtype == object
    assert all(type(x) is int for x in correlations[0].tolist())


def test_refused_energies_equal_the_certified_ones(monkeypatch):
    dom = PointDomain(FieldContext(3, 2), 2)
    subsets = _origin_subsets(dom, 9)
    want = [lambda_k(FoldLadder(dom, idx), k) for idx in subsets for k in (4, 6)]
    calls = _refuse_indicator_transforms(monkeypatch)
    seen = _counting_at_zero(monkeypatch)
    assert [lambda_k(FoldLadder(dom, idx), k) for idx in subsets for k in (4, 6)] == want
    assert seen == [None] * len(want)
    assert calls                       # r_3 = r_2 (*) r_1 by limb products


@pytest.mark.parametrize("p,n,d", ORIGIN_DOMAINS[:3])
def test_corrupted_held_spectrum_is_refused_never_miscounted(monkeypatch, p, n, d):
    # One bin of the held half spectrum is off by 1/2: the value at the
    # origin refuses, and so does the indicator fold that reads the same held
    # spectrum, so the count comes from limb products of fresh transforms.
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    v = builtin_variety(ctx, "sphere", d, 1)
    graph = cayley_spectrum(ctx, v.indices, d=d)
    idx = np.array(sorted(random.Random(p).sample(v.indices.tolist(), min(6, v.size - 1))))
    lam = lambda_k(FoldLadder(dom, idx), 4)
    audit = energy_growth_audit(FoldLadder(dom, v.indices), FoldLadder(dom, idx), 4, graph)
    seen = _counting_at_zero(monkeypatch)
    E, V = FoldLadder(dom, idx), FoldLadder(dom, v.indices)
    E.transform().flat[1] += 0.5
    assert E.energy(4) == lam
    assert energy_growth_audit(V, E, 4, graph) == audit
    assert seen == [None, None]         # Lambda_4, then the edge count
    E, V = FoldLadder(dom, idx), FoldLadder(dom, v.indices)
    V.transform().flat[1] += 0.5
    assert energy_growth_audit(V, E, 4, graph) == audit
    assert seen[2:] == [None, lam]      # the edge count, then E's own Lambda_4


@given(st.integers(0, 2 ** 200), st.integers(0, 2 ** 200), st.integers(1, 2 ** 120))
@settings(max_examples=300, deadline=None)
def test_gap_is_the_fraction_difference_bit_for_bit(count, num, den):
    want = float(Fraction(count) - Fraction(num, den))
    assert energy_mod._gap(count, num, den) == want
    assert math.copysign(1.0, energy_mod._gap(count, num, den)) == math.copysign(1.0, want)


# -- distance counts by dual class (FormLevels) --------------------------------

# (p, n, d, form) of F_5^2, F_9^2, F_25^2, F_27^2, F_7^3, F_13^3 diag(1, 2, 5)
# and F_7^4.
DUAL_CLASS_CASES = [(5, 1, 2, None), (3, 2, 2, None), (5, 2, 2, None), (3, 3, 2, None),
                    (7, 1, 3, None), (13, 1, 3, (1, 2, 5)), (7, 1, 4, None)]


@functools.cache
def _form_levels(p, n, d, coeffs):
    dom = PointDomain(FieldContext(p, n), d)
    form = QuadraticForm(coeffs) if coeffs else QuadraticForm.identity(d)
    values = form.value_table(dom)
    return energy_mod.FormLevels(dom, form, values, np.bincount(values, minlength=dom.ctx.q))


def _brute_distance_counts(levels, idx, k):
    """nu_k(t) for every t, one k-tuple of the multiset idx at a time: its sum
    by digit-wise addition and Q at that sum by `eval_quadratic`."""
    dom = levels.dom
    out = [0] * dom.ctx.q
    for tup in itertools.product(idx.tolist(), repeat=k):
        z = 0
        for i in tup:
            z = index_add(dom, z, i)
        out[eval_quadratic(dom.ctx, levels.form, point_of(dom, z))] += 1
    return out


@given(st.sampled_from(DUAL_CLASS_CASES), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_distance_counts_by_dual_class_equal_the_binned_fold_and_brute_force(case, k, data):
    levels = _form_levels(*case)
    dom = levels.dom
    # a multiset: indices may repeat
    idx = data.draw(st.lists(st.integers(0, dom.size - 1), min_size=1,
                             max_size=6 if k < 4 else 4))
    idx = np.array(idx, dtype=np.int64)
    E = FoldLadder(dom, idx)
    read = levels._read(E, k)
    assert read is not None          # certified, not the fallback
    assert read.dtype == np.int64
    assert np.array_equal(levels.nu_k(E, k), read)
    assert read.tolist() == nu_k(FoldLadder(dom, idx), levels.values, k).tolist()
    assert read.tolist() == _brute_distance_counts(levels, idx, k)


@pytest.mark.parametrize("case", [(7, 1, 3, None), (3, 2, 2, None), (13, 1, 3, (1, 2, 5))],
                         ids=["F7^3", "F9^2", "F13^3-diag"])
def test_dual_class_table_rows_match_every_level_transform(case):
    # The rows t != 0 of the two non-base levels of each square class are
    # scaled copies, and the row t = 0 is minus their sum; each must equal the
    # direct character sum of its level at every m != 0, read at Q*(m), Q*
    # evaluated point by point with the inverted coefficients.
    levels = _form_levels(*case)
    dom, ctx = levels.dom, levels.dom.ctx
    g, delta = levels._table
    dual = QuadraticForm(tuple(inv(ctx, ctx.element(a)) for a in levels.form.coeffs))
    qstar = [eval_quadratic(ctx, dual, point_of(dom, m)) for m in range(1, dom.size)]
    eps = energy_mod._pass_errors(dom)[0]
    for t in range(ctx.q):
        direct = character_sums_direct(dom, np.flatnonzero(levels.values == t))
        assert np.abs(direct.imag).max() < 1e-9
        count = int(levels.counts[t])
        assert abs(direct[0].real - count) < 1e-9
        # the direct sum is the exact transform to within 1e-9 at these sizes
        assert np.abs(g[t, qstar] - direct[1:].real).max() <= delta[t] + 1e-9
        assert delta[t] >= eps * math.sqrt(dom.size * count)


def test_empty_subset_distance_counts_are_zero_with_no_transform(monkeypatch):
    levels = energy_mod.FormLevels(DOM32, QuadraticForm.identity(2),
                                   QuadraticForm.identity(2).value_table(DOM32),
                                   [1, 4, 4])
    calls = []
    monkeypatch.setattr(energy_mod, "_rfft", lambda dom, table: calls.append(1))
    for k in (1, 3):
        table = levels.nu_k(FoldLadder(DOM32, []), k)
        assert table.dtype == np.int64 and table.tolist() == [0, 0, 0]
    assert calls == [] and "_table" not in vars(levels)
    with pytest.raises(ValueError, match="k = 0 must be >= 1"):
        levels.nu_k(FoldLadder(DOM32, [(1, 0)]), 0)


def _refuse(monkeypatch, reason):
    """Make the certificate of step 3'' refuse for `reason` on a case it
    certifies."""
    if reason == "bound":
        monkeypatch.setattr(energy_mod.FormLevels, "_error_bounds",
                            lambda self, E, k: np.full(self.dom.ctx.q, 0.5))
        return
    real = energy_mod.FormLevels._estimate

    def estimate(self, E, k):
        value = real(self, E, k)
        if reason == "residual":
            value += 0.25      # off every integer by more than its bound
        elif reason == "negative":
            value[1] = -1.0    # an integer, so only its sign refuses
        else:
            value[0] += 1.0    # integers, but the total is one too many
        return value

    monkeypatch.setattr(energy_mod.FormLevels, "_estimate", estimate)


@pytest.mark.parametrize("reason", ["bound", "residual", "negative", "total", "mass"])
def test_refused_dual_class_read_falls_back_to_the_binned_fold(reason, monkeypatch):
    if reason == "mass":   # 100^8 > 2^53: no float table is exact
        levels, k = _form_levels(3, 1, 2, None), 8
        idx = np.arange(100) % 9
    else:
        levels, k = _form_levels(7, 1, 3, None), 3
        idx = np.array(random.Random(5).sample(range(levels.dom.size), 40))
    dom = levels.dom
    want = nu_k(FoldLadder(dom, idx), levels.values, k)
    if reason != "mass":
        assert levels._read(FoldLadder(dom, idx), k).tolist() == want.tolist()
        _refuse(monkeypatch, reason)
    fallbacks = []

    def binned(E, values, k):
        fallbacks.append(k)
        return nu_k(E, values, k)

    monkeypatch.setattr(energy_mod, "nu_k", binned)
    E = FoldLadder(dom, idx)
    assert levels._read(E, k) is None
    assert levels.nu_k(E, k).tolist() == want.tolist()
    assert fallbacks == [k]


def _corrupting_rfft(real):
    def rfft(dom, table):
        hat = real(dom, table)
        hat.reshape(-1)[1] += 1.0   # one bin of a class with other members
        return hat
    return rfft


def test_level_transform_off_its_classes_raises(monkeypatch):
    dom = PointDomain(FieldContext(7), 3)
    form = QuadraticForm.identity(3)
    values = form.value_table(dom)
    levels = energy_mod.FormLevels(dom, form, values, np.bincount(values, minlength=7))
    monkeypatch.setattr(energy_mod, "_rfft", _corrupting_rfft(energy_mod._rfft))
    with pytest.raises(InvariantError, match="spreads by 1 on dual class"):
        levels.nu_k(FoldLadder(dom, np.array([1, 2, 3])), 2)


def test_level_transform_check_survives_python_O():
    script = """
import sys
import numpy as np
import fqspectra.energy as energy
from fqspectra.domains import PointDomain
from fqspectra.errors import InvariantError
from fqspectra.field import FieldContext
from fqspectra.geometry import QuadraticForm

assert False, "asserts must be stripped under -O"
real = energy._rfft

def rfft(dom, table):
    hat = real(dom, table)
    hat.reshape(-1)[1] += 1.0
    return hat

energy._rfft = rfft
dom = PointDomain(FieldContext(7), 3)
values = QuadraticForm.identity(3).value_table(dom)
levels = energy.FormLevels(dom, QuadraticForm.identity(3), values,
                           np.bincount(values, minlength=7))
try:
    levels.nu_k(energy.FoldLadder(dom, np.array([1, 2, 3])), 2)
except InvariantError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "on dual class" in proc.stdout
