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
from fqspectra.domains import PointDomain, character_sum_table
from fqspectra.errors import (
    BudgetExceededError,
    DegenerateFormError,
    EmptyXError,
    InconsistentTotalError,
    NotDiagonalError,
    OddKError,
)
from fqspectra.field import FieldContext
from fqspectra.energy import (
    CountTable,
    FoldLadder,
    delta_set,
    energy_growth_audit,
    energy_profile,
    energy_recursion_ratio,
    energy_term,
    fold_counts,
    lambda_k,
    nu_P_k,
    nu_deviation_audit,
    nu_deviation_audits,
    nu_k,
    second_moment,
    second_moment_audit,
    sumset,
    sumset_lower_bound,
)
from fqspectra.geometry import QuadraticForm, builtin_variety, diagonal_poly
from fqspectra.spectra import affine_cayley_spectrum, euclidean_spectrum

from oracles import brute_delta, brute_fold, brute_lambda, brute_nu, brute_nu_P

F3 = FieldContext(3)
F5 = FieldContext(5)
DOM32 = PointDomain(F3, 2)
S1_F3 = builtin_variety(F3, "sphere", 2, 1)


def _random_subset(dom, size, seed):
    rng = random.Random(seed)
    idxs = rng.sample(range(dom.size), size)
    return [dom.point_of(i) for i in idxs]


def test_fold_depth_one_is_indicator():
    r = fold_counts(DOM32, S1_F3.points, 1)
    for idx in range(DOM32.size):
        expected = 1 if DOM32.point_of(idx) in set(S1_F3.points) else 0
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
                assert r[idx] == want.get(dom.point_of(idx), 0)


@given(st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_fold_mass_conservation(size, j):
    rng = random.Random(size * 17 + j)
    idxs = rng.sample(range(DOM32.size), size)
    E = [DOM32.point_of(i) for i in idxs]
    assert fold_counts(DOM32, E, j).total() == size ** j


def test_big_integer_path_matches_int64(monkeypatch):
    E = _random_subset(DOM32, 5, seed=2)
    fast = fold_counts(DOM32, E, 3)
    assert fast.values.dtype == np.int64
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 1)
    slow = fold_counts(DOM32, E, 3)
    assert slow.values.dtype == object
    assert [int(v) for v in slow.values] == [int(v) for v in fast.values]
    assert lambda_k(DOM32, E, 6) == sum(int(v) ** 2 for v in fast.values)


def test_fold_budget_guard():
    ctx = FieldContext(101)
    dom = PointDomain(ctx, 3)
    E = [(i, 0, 0) for i in range(101)]
    with pytest.raises(BudgetExceededError):
        fold_counts(dom, E, 11)


def test_lambda2_is_set_size():
    for size in (1, 2, 3, 4):
        E = _random_subset(DOM32, size, seed=size)
        assert lambda_k(DOM32, E, 2) == size


def test_lambda4_sphere_is_36_with_brute_force():
    assert lambda_k(DOM32, S1_F3.points, 4) == 36
    assert brute_lambda(3, list(S1_F3.points), 4) == 36


def test_lambda_singleton():
    for k in (2, 4, 6):
        assert lambda_k(DOM32, [(0, 0)], k) == 1


def test_lambda_odd_k_rejected():
    with pytest.raises(OddKError):
        lambda_k(DOM32, S1_F3.points, 3)


def test_nu_sphere_worked_values():
    table = nu_k(DOM32, S1_F3.points, QuadraticForm.identity(2), 2)
    assert [table[t] for t in range(3)] == [4, 4, 8]
    want = brute_nu(3, list(S1_F3.points), ((1, 0), (0, 1)), 2)
    assert all(table[t] == want.get(t, 0) for t in range(3))


def test_nu_total_mass_full_space():
    dom = PointDomain(F3, 2)
    full = [dom.point_of(i) for i in range(dom.size)]
    for k in (1, 2):
        table = nu_k(dom, full, QuadraticForm.identity(2), k)
        assert table.total() == dom.size ** k == 3 ** (2 * k)


def test_nu_k1_sphere_definition():
    table = nu_k(DOM32, S1_F3.points, QuadraticForm.identity(2), 1)
    assert table[1] == 4 and table[0] == 0 and table[2] == 0


def test_nu_degenerate_form_rejected():
    with pytest.raises(DegenerateFormError):
        nu_k(DOM32, S1_F3.points, QuadraticForm.diagonal((1, 0)), 2)


def test_nu_P_worked_example():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    table = nu_P_k(dom, [(1,), (2,)], [0], P, 2)
    assert [table[t] for t in range(3)] == [2, 2, 0]
    want = brute_nu_P(3, [(1,), (2,)], [0], (1,), 2, 2)
    assert all(table[t] == want.get(t, 0) for t in range(3))


def test_nu_P_zero_shift_equals_plain_distance_count():
    dom = PointDomain(F5, 2)
    P = diagonal_poly(F5, 2, 2)
    E = _random_subset(dom, 4, seed=9)
    with_zero = nu_P_k(dom, E, [0], P, 2)
    want = brute_nu_P(5, E, [0], (1, 1), 2, 2)
    assert all(with_zero[t] == want.get(t, 0) for t in range(5))


def test_nu_P_full_shift_set_flattens():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    E = [(1,), (2,)]
    table = nu_P_k(dom, E, list(range(3)), P, 2)
    assert [table[t] for t in range(3)] == [4, 4, 4]  # |E|^k each


def test_nu_P_shift_sum_switches_to_big_integers(monkeypatch):
    dom = PointDomain(F5, 1)
    P = diagonal_poly(F5, 1, 2)
    E, X = [(1,), (3,)], [0, 1, 4]
    fast = nu_P_k(dom, E, X, P, 2)
    monkeypatch.setattr(energy_mod, "_INT64_SAFE", 5)  # |E|^k = 4 < 5 <= |X||E|^k
    slow = nu_P_k(dom, E, X, P, 2)
    assert fast.values.dtype == np.int64 and slow.values.dtype == object
    assert [int(v) for v in slow.values] == [int(v) for v in fast.values]


def test_nu_P_empty_X_rejected():
    dom = PointDomain(F3, 1)
    with pytest.raises(EmptyXError):
        nu_P_k(dom, [(1,)], [], diagonal_poly(F3, 1, 2), 2)
    from fqspectra.geometry import PolySpec
    with pytest.raises(NotDiagonalError):
        nu_P_k(PointDomain(F3, 2), [(1, 0)], [0], PolySpec(2, ((1, (1, 1)),)), 2)


def test_delta_sphere_covers_f3():
    ds = delta_set(DOM32, S1_F3.points, QuadraticForm.identity(2), 2)
    assert ds.values == (0, 1, 2)
    assert ds.covers_Fq and ds.covers_Fq_star
    want = brute_delta(3, list(S1_F3.points),
                       lambda z: (z[0] ** 2 + z[1] ** 2) % 3, 2)
    assert set(ds.values) == want


def test_delta_singleton_origin():
    ds = delta_set(DOM32, [(0, 0)], QuadraticForm.identity(2), 3)
    assert ds.values == (0,)
    assert not ds.covers_Fq_star


def test_delta_k1_sphere():
    ds = delta_set(DOM32, S1_F3.points, QuadraticForm.identity(2), 1)
    assert ds.values == (1,)


def test_second_moment_uniform_gives_max_bound():
    vals = np.full(5, 6, dtype=np.int64)  # |X||E|^k = 30 spread evenly
    table = CountTable(kind="scalars", d=1, q=5, values=vals)
    assert second_moment(table) == 5 * 36
    bound = sumset_lower_bound(table, 5, 6, 1)
    assert bound == Fraction(5)  # q is the maximum possible


def test_second_moment_concentrated_gives_one():
    vals = np.zeros(5, dtype=np.int64)
    vals[2] = 8  # |X| = 2, |E| = 2, k = 2
    table = CountTable(kind="scalars", d=1, q=5, values=vals)
    assert sumset_lower_bound(table, 2, 2, 2) == Fraction(1)


def test_sumset_bound_worked_example():
    dom = PointDomain(F3, 1)
    P = diagonal_poly(F3, 1, 2)
    E = [(1,), (2,)]
    table = nu_P_k(dom, E, [0], P, 2)
    assert second_moment(table) == 8
    bound = sumset_lower_bound(table, 1, 2, 2)
    assert bound == Fraction(16, 8) == 2
    ds = delta_set(dom, E, P, 2)
    ss = sumset(F3, [0], ds.values)
    assert ss == (0, 1) and len(ss) >= bound


def test_sumset_inconsistent_total_rejected():
    vals = np.zeros(3, dtype=np.int64)
    vals[0] = 7
    table = CountTable(kind="scalars", d=1, q=3, values=vals)
    with pytest.raises(InconsistentTotalError):
        sumset_lower_bound(table, 1, 2, 2)


def test_energy_profile_and_odd_products():
    prof = energy_profile(DOM32, S1_F3.points, 6)
    assert prof.values[2] == 4 and prof.values[4] == 36
    assert prof.odd_products[3] == 4 * 36
    assert prof.odd_products[5] == 36 * prof.values[6]
    d = prof.as_dict()
    assert d["lambda"]["4"] == 36


def test_energy_recursion_ratio_fixture():
    out = energy_recursion_ratio(DOM32, S1_F3.points, 4)
    assert out["k_energy"] == 36
    assert out["bound_term"] == pytest.approx(3 * 4 + 64 / 3)
    assert out["ratio"] == pytest.approx(36 / (12 + 64 / 3))


def test_oracle_equivalence_quick():
    rng = random.Random(0)
    for p, d in [(3, 2), (5, 2)]:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        form = QuadraticForm.identity(d)
        matrix = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        for trial in range(20):
            size = rng.randint(1, 6)
            E = _random_subset(dom, size, seed=1000 * p + trial)
            assert lambda_k(dom, E, 2) == brute_lambda(p, E, 2)
            assert lambda_k(dom, E, 4) == brute_lambda(p, E, 4)
            got = nu_k(dom, E, form, 2)
            want = brute_nu(p, E, matrix, 2)
            assert all(got[t] == want.get(t, 0) for t in range(p))
            ds = delta_set(dom, E, form, 2)
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
            spectra[t], _ = euclidean_spectrum(ctx, form, t, 2)
        audit = nu_deviation_audit(dom, E, form, k, t, spectra[t])
        assert audit.ok, audit.as_dict()


def test_nu_deviation_audit_rejects_t_zero():
    spec, _ = euclidean_spectrum(F5, QuadraticForm.identity(2), 1, 2)
    with pytest.raises(ValueError):
        nu_deviation_audit(PointDomain(F5, 2), [(0, 1)],
                           QuadraticForm.identity(2), 2, 0, spec)


def test_energy_growth_audit_on_sphere_subsets():
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    rng = random.Random(3)
    for _ in range(10):
        size = rng.randint(1, v.size)
        E = sorted(rng.sample(list(v.points), size))
        audit = energy_growth_audit(dom, v, E, 4)
        assert audit.ok, audit.as_dict()
        assert audit.detail["k_energy"] <= audit.detail["edge_count"]


def test_energy_growth_audit_requires_containment():
    v = builtin_variety(F5, "sphere", 2, 1)
    with pytest.raises(ValueError):
        energy_growth_audit(PointDomain(F5, 2), v, [(0, 0)], 4)


@pytest.mark.parametrize("k", [2, 3])
def test_second_moment_audit_never_fails(k):
    ctx = F5
    dom = PointDomain(ctx, 1)
    P = diagonal_poly(ctx, 1, 2)
    graph, _ = affine_cayley_spectrum(ctx, P, 1)
    rng = random.Random(8)
    for seed in range(15):
        size = rng.randint(1, 5)
        E = _random_subset(dom, size, seed=100 + seed)
        X = sorted(rng.sample(range(5), rng.randint(1, 5)))
        audit = second_moment_audit(dom, E, X, P, k, graph=graph)
        assert audit.ok, audit.as_dict()


def test_multiset_from_fold_matches_counter():
    ms = energy_mod.multiset_from_fold(DOM32, S1_F3.points, 2)
    assert ms[DOM32.index_of((0, 0))] == 4
    assert sum(ms.values()) == 16
    assert sum(m * m for m in ms.values()) == 36  # the 4-energy


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


@given(st.sampled_from(FOLD_DOMAINS), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_transform_fold_equals_roll_fold_and_brute_force(shape, j, data):
    p, n, d = shape
    dom = PointDomain(FieldContext(p, n), d)
    idx = np.array(data.draw(st.lists(st.integers(0, dom.size - 1), max_size=5)),
                   dtype=np.int64)
    transform = energy_mod._transform_fold(dom, [(idx, j)])
    assert transform is not None
    roll = energy_mod._roll_fold(dom, idx, j, np.int64)
    assert np.array_equal(transform, roll)
    want = np.zeros(dom.size, dtype=np.int64)
    for digits, count in brute_fold(p, [_digits(dom, i) for i in idx], j).items():
        want[_undigits(dom, digits)] = count
    assert np.array_equal(transform, want)
    points = [dom.point_of(int(i)) for i in idx]
    assert np.array_equal(fold_counts(dom, points, j).values, want)


def _count_translations(monkeypatch):
    calls = []
    original = PointDomain.translate_table

    def counting(self, table, idx):
        calls.append(idx)
        return original(self, table, idx)

    monkeypatch.setattr(PointDomain, "translate_table", counting)
    return calls


def test_failed_certificate_falls_back_to_roll_fold(monkeypatch):
    dom = PointDomain(FieldContext(3, 2), 2)
    v = builtin_variety(dom.ctx, "sphere", 2, 1)
    E = sorted(random.Random(4).sample(list(v.points), 6))
    calls = _count_translations(monkeypatch)
    fast = [fold_counts(dom, E, j).values for j in (1, 2, 3)]
    fast_audit = energy_growth_audit(dom, v, E, 4)
    assert calls == []
    monkeypatch.setattr(energy_mod, "_fold_error_bound", lambda *args: 0.5)
    slow = [fold_counts(dom, E, j).values for j in (1, 2, 3)]
    assert len(calls) == len(E) * (0 + 1 + 2)  # |E| shifts per depth after the first
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    calls.clear()
    assert energy_growth_audit(dom, v, E, 4) == fast_audit
    assert len(calls) == v.size + len(E)  # the correlation over V, then r_2


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
    dom = PointDomain(F3, 2)
    E = [(0, 1), (1, 2), (2, 2)]
    want = fold_counts(dom, E, 2).values
    original = np.fft.ifftn

    def corrupted(*args, **kwargs):
        x = original(*args, **kwargs)
        corrupt(x)
        return x

    monkeypatch.setattr(np.fft, "ifftn", corrupted)
    calls = _count_translations(monkeypatch)
    assert np.array_equal(fold_counts(dom, E, 2).values, want)
    assert len(calls) == len(E)


def test_transform_fold_refuses_masses_beyond_float_precision(monkeypatch):
    monkeypatch.setattr(energy_mod, "_fold_error_bound", lambda *args: 0.0)
    dom = PointDomain(F3, 2)
    idx = np.arange(9, dtype=np.int64)
    assert energy_mod._transform_fold(dom, [(idx, 17)]) is None  # 9^17 > 2^53
    r = fold_counts(dom, idx, 17)
    assert r.values.dtype == np.int64 and r.total() == 9 ** 17
    assert set(r.values.tolist()) == {9 ** 16}  # the whole group, evenly


def test_energy_growth_edge_count_matches_brute_force_off_symmetric_varieties():
    # A paraboloid is not symmetric under z -> -z, so the sign of the
    # correlation shift matters here, unlike on a sphere.
    for ctx in (F5, FieldContext(3, 2)):
        dom = PointDomain(ctx, 2)
        v = builtin_variety(ctx, "paraboloid", 2)
        vset = set(dom.indices_of(v.points).tolist())
        E = sorted(random.Random(ctx.q).sample(list(v.points), 5))
        idx = dom.indices_of(E)
        want = sum(1 for a in idx for b1 in idx for b2 in idx
                   if int(dom.index_sub(dom.index_add(int(b1), int(b2)), int(a))) in vset)
        assert energy_growth_audit(dom, v, E, 4).detail["edge_count"] == want


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (3, 2, 2), (7, 1, 2)])
def test_spectral_identity_for_even_energies(p, n, d):
    dom = PointDomain(FieldContext(p, n), d)
    E = _random_subset(dom, 7, seed=p * n + d)
    hat = np.abs(character_sum_table(dom, E, method="direct"))
    for k in (2, 4, 6):
        assert lambda_k(dom, E, k) == pytest.approx(
            float(np.sum(hat ** k)) / dom.size, rel=1e-9)


def test_ladder_builds_each_depth_once(monkeypatch):
    depths = []
    original = energy_mod.fold_counts

    def counting(dom, E, j):
        depths.append(j)
        return original(dom, E, j)

    monkeypatch.setattr(energy_mod, "fold_counts", counting)
    dom = PointDomain(F5, 2)
    form = QuadraticForm.identity(2)
    graphs = {t: euclidean_spectrum(F5, form, t, 2)[0] for t in range(1, 5)}
    ladder = FoldLadder(dom, _random_subset(dom, 6, seed=5))
    nu_k(dom, ladder, form, 3)
    delta_set(dom, ladder, form, 3)
    nu_deviation_audits(dom, ladder, form, 3, graphs)
    energy_term(ladder, 3)
    lambda_k(dom, ladder, 2)
    energy_recursion_ratio(dom, ladder, 4)
    assert sorted(depths) == [1, 2, 3]
    assert len(ladder) == 6


def test_ladder_and_point_list_give_identical_audits():
    dom = PointDomain(F5, 2)
    form = QuadraticForm.identity(2)
    graphs = {t: euclidean_spectrum(F5, form, t, 2)[0] for t in range(1, 5)}
    E = _random_subset(dom, 6, seed=6)
    for k in (2, 3, 4):
        by_points = nu_deviation_audits(dom, E, form, k, graphs)
        assert nu_deviation_audits(dom, FoldLadder(dom, E), form, k, graphs) == by_points
        assert [nu_deviation_audit(dom, E, form, k, t, graphs[t]) for t in range(1, 5)] \
            == by_points
    with pytest.raises(ValueError):
        lambda_k(PointDomain(F5, 3), FoldLadder(dom, E), 2)


def test_invariant_checks_survive_optimized_mode():
    script = """
import sys
import numpy as np
import fqspectra.energy as energy
from fqspectra.domains import PointDomain
from fqspectra.errors import InvariantError
from fqspectra.field import FieldContext

assert False, "asserts must be stripped under -O"
energy._fold_error_bound = lambda *args: float("inf")
PointDomain.translate_table = lambda self, table, idx: np.zeros_like(table)
try:
    energy.fold_counts(PointDomain(FieldContext(3), 2), [(0, 1), (1, 2)], 2)
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
