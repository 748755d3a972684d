import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqspectra.geometry as geometry_mod
import fqspectra.spectra as spectra_mod

from fqspectra.domains import PointDomain, character_sum_table
from fqspectra.errors import (
    DegenerateFormError,
    DimensionMismatchError,
    EmptyVarietyError,
    ZeroParameterError,
)
from fqspectra.field import FieldContext
from fqspectra.geometry import (
    PolySpec,
    QuadraticForm,
    Variety,
    builtin_variety,
    diagonal_poly,
    enumerate_variety,
    eval_poly_table,
    minkowski_poly,
    paraboloid_poly,
    regularity_check,
    sphere_poly,
)
from fqspectra.spectra import cayley_spectrum

from oracles import (
    character_sums_direct,
    eval_poly,
    eval_quadratic,
    point_of,
    variety_reference,
)

F3 = FieldContext(3)
F5 = FieldContext(5)


def _regularity(ctx, v):
    return regularity_check(cayley_spectrum(ctx, v.indices, d=v.d))


def _family_poly(ctx, family, d, j=1):
    """The polynomial `builtin_variety` enumerates for a family."""
    if family == "paraboloid":
        return paraboloid_poly(ctx, d)
    return (sphere_poly if family == "sphere" else minkowski_poly)(ctx, d, j)


def test_eval_poly_fixed_values():
    sphere0 = PolySpec(2, ((1, (2, 0)), (1, (0, 2))))
    assert eval_poly(F3, sphere0, (1, 1)) == 2
    hyper = PolySpec(2, ((1, (1, 1)), (2, (0, 0))))  # x1*x2 - 1
    assert eval_poly(F3, hyper, (2, 2)) == 0
    s1 = sphere_poly(F5, 2, 1)
    assert eval_poly(F5, s1, (2, 1)) == 4


def test_eval_poly_dimension_mismatch():
    spec = PolySpec(2, ((1, (1, 0)),))
    with pytest.raises(DimensionMismatchError):
        eval_poly(F3, spec, (1, 2, 3))


def _table_cases(ctx, d):
    """Polynomials on F_q^d: terms on one axis each (sphere, paraboloid,
    diagonal), one term on every axis (Minkowski), a constant, and none."""
    top = ctx.q - 1
    return [sphere_poly(ctx, d, 1), paraboloid_poly(ctx, d), minkowski_poly(ctx, d, top),
            diagonal_poly(ctx, d, 3, [1 + i % top for i in range(d)]),
            PolySpec(d, ((top, (0,) * d),)), PolySpec(d, ())]


def _assert_fresh_table(table, size):
    # Callers write into value tables.
    assert table.shape == (size,) and table.dtype == np.int64
    assert table.flags.c_contiguous and table.flags.writeable


def test_eval_table_matches_pointwise():
    for (p, n), d in [((3, 1), 2), ((5, 1), 2), ((3, 2), 2), ((7, 1), 3), ((3, 3), 2),
                      ((3, 1), 4)]:
        ctx = FieldContext(p, n)
        dom = PointDomain(ctx, d)
        points = [point_of(dom, idx) for idx in range(dom.size)]
        for spec in _table_cases(ctx, d):
            table = eval_poly_table(dom, spec)
            _assert_fresh_table(table, dom.size)
            assert table.tolist() == [eval_poly(ctx, spec, pt) for pt in points], spec


def test_enumerate_sphere_f3():
    v = builtin_variety(F3, "sphere", 2, 1)
    assert v.points == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert v.size == 4


def test_enumerate_paraboloid_f3():
    v = builtin_variety(F3, "paraboloid", 2)
    assert v.points == ((0, 0), (1, 1), (2, 1))
    assert v.size == 3 == F3.q ** 1


def test_enumerate_minkowski_f3():
    v = builtin_variety(F3, "minkowski", 2, 1)
    assert v.points == ((1, 1), (2, 2))
    assert v.size == (F3.q - 1) ** 1


def test_enumeration_matches_brute_force_scan():
    for ctx, family, j in [(F3, "sphere", 2), (F5, "minkowski", 3),
                           (F5, "paraboloid", None)]:
        v = builtin_variety(ctx, family, 2, j)
        spec = _family_poly(ctx, family, 2, j)
        assert np.array_equal(enumerate_variety(ctx, spec).indices, v.indices)
        expected = sorted(pt for pt in itertools.product(range(ctx.q), repeat=2)
                          if eval_poly(ctx, spec, pt) == 0)
        assert list(v.points) == expected


def test_paraboloid_is_function_graph():
    v = builtin_variety(F5, "paraboloid", 2)
    assert v.size == 5
    assert all(F5.mul(x, x) == y for x, y in v.points)


def test_zero_radius_rejected():
    with pytest.raises(ZeroParameterError):
        builtin_variety(F3, "sphere", 2, 0)
    with pytest.raises(ZeroParameterError):
        builtin_variety(F3, "minkowski", 2, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("d", [2, 3])
def test_sphere_sizes_within_classical_window(p, d):
    ctx = FieldContext(p)
    q = ctx.q
    for j in range(1, q):
        v = builtin_variety(ctx, "sphere", d, j)
        assert abs(v.size - q ** (d - 1)) <= 2 * q ** ((d - 1) / 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("d", [2, 3])
def test_paraboloid_size_exact(p, d):
    ctx = FieldContext(p)
    v = builtin_variety(ctx, "paraboloid", d)
    assert v.size == ctx.q ** (d - 1)


def test_enumeration_is_deterministic():
    a = builtin_variety(F5, "sphere", 3, 2)
    b = builtin_variety(F5, "sphere", 3, 2)
    assert a.points == b.points
    assert list(a.points) == sorted(a.points)


@pytest.mark.parametrize("ctx,family,d", [
    (F5, "sphere", 3), (FieldContext(3, 2), "paraboloid", 3), (F3, "minkowski", 2)])
def test_chunked_enumeration_gives_the_same_variety(ctx, family, d, monkeypatch):
    whole = builtin_variety(ctx, family, d)
    monkeypatch.setattr(geometry_mod, "_EVAL_CHUNK", 7)
    chunked = builtin_variety(ctx, family, d)
    want = variety_reference(PointDomain(ctx, d), _family_poly(ctx, family, d))
    for v in (whole, chunked):
        assert v.indices.dtype == np.int64
        assert v.indices.tolist() == want


@pytest.mark.parametrize("ctx,chunk", [(F5, 3), (F5, 100), (FieldContext(3, 2), 500)])
@pytest.mark.parametrize("family", ["sphere", "paraboloid", "minkowski"])
def test_enumeration_in_blocks_smaller_than_q_or_a_row(ctx, chunk, family, monkeypatch):
    # d = 4 with blocks below q (every coordinate is fixed per cell) and below
    # q^(d-1) (a block runs over rows of several leading coordinates).
    q, d = ctx.q, 4
    whole = builtin_variety(ctx, family, d)
    blocks = []
    eval_rows = geometry_mod._eval_rows

    def recording(ctx, spec, rows, t):
        block = eval_rows(ctx, spec, rows, t)
        blocks.append(block.shape)
        return block

    monkeypatch.setattr(geometry_mod, "_EVAL_CHUNK", chunk)
    monkeypatch.setattr(geometry_mod, "_eval_rows", recording)
    chunked = builtin_variety(ctx, family, d)
    assert chunked.indices.dtype == np.int64
    assert chunked.indices.tolist() == whole.indices.tolist() == variety_reference(
        PointDomain(ctx, d), _family_poly(ctx, family, d))
    cells = [math.prod(shape) for shape in blocks]
    assert sum(cells) == q ** d and max(cells) <= chunk
    assert len(blocks) <= math.ceil(q ** d * q / ((q - 1) * chunk))
    # a block's leading coordinates are those its trailing axes leave
    assert min(d - (len(shape) - 1) for shape in blocks) > 1


def test_regularity_sphere_f3():
    v = builtin_variety(F3, "sphere", 2, 1)
    rep = _regularity(F3, v)
    assert rep.size_constant == pytest.approx(4 / 3)
    # max nontrivial character sum has modulus 2 (scan over the 8 nonzero m)
    assert rep.fourier_constant == pytest.approx(2 / 3 ** 0.5)
    assert rep.verdict


def test_regularity_paraboloid_f3():
    v = builtin_variety(F3, "paraboloid", 2)
    rep = _regularity(F3, v)
    assert rep.size_constant == pytest.approx(1.0)
    # max modulus is the quadratic Gauss sum sqrt(3)
    assert rep.fourier_constant == pytest.approx(1.0)
    assert rep.verdict


def test_regularity_full_space_fails_size():
    spec = PolySpec(2, ())  # the zero polynomial: V = F_q^2
    v = enumerate_variety(F3, spec)
    assert v.size == 9
    rep = _regularity(F3, v)
    assert rep.fourier_constant == pytest.approx(0.0, abs=1e-9)
    assert rep.size_constant == pytest.approx(3.0)
    assert not rep.verdict and not rep.size_ok and rep.fourier_ok


@pytest.mark.parametrize("thresholds", [(3.0, 1.0, 3.0), (0.5, 2.0, math.nan),
                                        (math.nan, 2.0, 3.0), (0.5, math.nan, 3.0)],
                         ids=["c1-lo-above-c1-hi", "c2-max-nan", "c1-lo-nan", "c1-hi-nan"])
def test_regularity_window_that_can_never_pass_is_rejected(thresholds):
    graph = cayley_spectrum(F3, builtin_variety(F3, "sphere", 2, 1).indices, d=2)
    with pytest.raises(ValueError, match="can never pass"):
        regularity_check(graph, thresholds=thresholds)


def test_regularity_default_and_point_windows_are_accepted():
    graph = cayley_spectrum(F3, builtin_variety(F3, "sphere", 2, 1).indices, d=2)
    assert regularity_check(graph).thresholds == (0.5, 2.0, 3.0)
    assert not regularity_check(graph, thresholds=(1.0, 1.0, 3.0)).size_ok


def test_regularity_empty_variety():
    spec = PolySpec(2, ((1, (0, 0)),))  # F = 1: no zeros
    v = enumerate_variety(F3, spec)
    assert v.size == 0
    with pytest.raises(EmptyVarietyError):
        _regularity(F3, v)


def test_regularity_methods_agree():
    for ctx in (F3, F5, FieldContext(3, 2)):
        v = builtin_variety(ctx, "sphere", 2, 1)
        dom = PointDomain(ctx, 2)
        tables = (character_sums_direct(dom, v.indices), character_sum_table(dom, v.indices))
        a, b = (regularity_check(spectra_mod._scan_spectrum(
                    dom, v.size, lambda table=table: (table,)))
                for table in tables)
        assert a.fourier_constant == pytest.approx(b.fourier_constant, rel=1e-6)
        assert a.argmax_m == b.argmax_m


def test_engine_paths_agree_on_random_sets():
    rng = np.random.default_rng(5)
    for ctx, d in [(F3, 2), (F5, 2), (FieldContext(3, 2), 1)]:
        dom = PointDomain(ctx, d)
        for _ in range(10):
            count = int(rng.integers(1, dom.size))
            idxs = rng.choice(dom.size, size=count, replace=False)
            pts = [point_of(dom, int(i)) for i in idxs]
            a = character_sums_direct(dom, dom.as_indices(pts))
            b = character_sum_table(dom, pts)
            assert np.max(np.abs(a - b)) < 1e-6 * max(1, len(pts))


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (3, 2, 2), (3, 2, 1), (3, 3, 1), (101, 1, 1),
                                   (3, 2, 3), (3, 3, 2)])
def test_character_sum_table_matches_the_direct_sum_on_small_sets(p, n, d):
    # Sets of 1, 2, p*n and p*n + 1 points (at most all of F_q^d), and
    # d = 1 domains, whose table has only q cells.
    dom = PointDomain(FieldContext(p, n), d)
    rng = np.random.default_rng(p * n * d)
    for size in sorted({min(s, dom.size) for s in (1, 2, p * n, p * n + 1)}):
        idx = rng.choice(dom.size, size=size, replace=False)
        a = character_sums_direct(dom, idx)
        b = character_sum_table(dom, idx)
        assert np.max(np.abs(a - b)) < 1e-9 * size


# Primes above the DFT-matrix crossover (373) take numpy.fft.
@pytest.mark.parametrize("p,n,d", [(379, 1, 1), (379, 1, 2), (1009, 1, 1), (1009, 1, 2),
                                   (409, 2, 1)])
def test_character_sum_table_above_the_crossover_matches_the_direct_sum(p, n, d):
    dom = PointDomain(FieldContext(p, n), d)
    rng = np.random.default_rng(p * n * d)
    for size in (1, 2, 16):
        idx = rng.choice(dom.size, size=size, replace=False)
        a = character_sums_direct(dom, idx)
        b = character_sum_table(dom, idx)
        assert np.max(np.abs(a - b)) < 1e-9 * size


def test_character_sum_table_builds_no_p_by_p_matrix_above_the_crossover():
    # A p x p twiddle matrix at p = 1009 alone would take 16 MB.
    dom = PointDomain(FieldContext(1009), 1)
    idx = np.array([0, 3, 17, 500, 1008])
    tracemalloc.start()
    try:
        character_sum_table(dom, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# F_9 and F_27 over d = 1..3: the trace reindex of `character_sum_table` is
# the identity over prime fields, so only extension fields exercise it.
EXTENSION_DOMAINS = [PointDomain(FieldContext(3, n), d) for n in (2, 3) for d in (1, 2, 3)]
EXTENSION_POINT_SETS = st.sampled_from(EXTENSION_DOMAINS).flatmap(
    lambda dom: st.tuples(st.just(dom), st.lists(
        st.integers(0, dom.size - 1), min_size=1, max_size=min(dom.size, 40), unique=True)))


@given(EXTENSION_POINT_SETS)
@settings(max_examples=60, deadline=None)
def test_character_sum_paths_agree_over_extension_fields(case):
    dom, points = case
    idx = np.array(points, dtype=np.int64)
    a = character_sums_direct(dom, idx)
    b = character_sum_table(dom, idx)
    assert np.max(np.abs(a - b)) < 1e-9 * len(points)


@given(EXTENSION_POINT_SETS)
@settings(max_examples=60, deadline=None)
def test_character_sum_table_satisfies_parseval(case):
    dom, points = case
    lam = character_sum_table(dom, np.array(points, dtype=np.int64))
    assert float(np.sum(np.abs(lam) ** 2)) == pytest.approx(dom.size * len(points),
                                                            rel=1e-9)


def test_variety_serialization_roundtrip(tmp_path):
    v = builtin_variety(F5, "sphere", 3, 1)
    path = tmp_path / "v.txt"
    v.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"5 3 {v.size}"
    loaded = Variety.load(path)
    assert loaded.points == v.points
    assert loaded.q == 5 and loaded.d == 3


@given(EXTENSION_POINT_SETS)
@settings(max_examples=60, deadline=None)
def test_variety_save_load_roundtrip_over_extension_fields(case):
    dom, points = case
    v = Variety(d=dom.d, q=dom.ctx.q,
                indices=np.array(sorted(points), dtype=np.int64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.txt"
        v.save(path)
        text = path.read_text()
        loaded = Variety.load(path)
        loaded.save(path)
        assert path.read_text() == text
    assert (loaded.q, loaded.d) == (v.q, v.d)
    assert np.array_equal(loaded.indices, v.indices)
    assert loaded.points == v.points


def test_variety_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5 3\n")
    with pytest.raises(ValueError):
        Variety.load(path)


def test_quadratic_form_validation_and_nondegeneracy():
    q = QuadraticForm.identity(3)
    assert q.coeffs == (1, 1, 1) and q.d == 3
    q.require_nondegenerate(F5)
    assert QuadraticForm.parse("diag:1,2,3", 3) == QuadraticForm((1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        QuadraticForm.parse("diag:1,2", 3)
    with pytest.raises(ValueError):
        QuadraticForm.parse("matrix:1,2", 2)
    # A coefficient that is 0 in F_q makes the form degenerate.
    for coeffs in ((1, 0), (1, 5), (-5, 2)):
        with pytest.raises(DegenerateFormError, match="degenerate over F_q"):
            QuadraticForm(coeffs).require_nondegenerate(F5)
    F9 = FieldContext(3, 2)
    QuadraticForm((1, 8)).require_nondegenerate(F9)
    # Over an extension field a coefficient outside 0..q-1 is no element,
    # even next to a zero one.
    with pytest.raises(ValueError, match="not an element"):
        QuadraticForm((0, 9)).require_nondegenerate(F9)


def test_quadratic_form_tables_match_pointwise():
    # Degenerate forms, with zero coefficients, keep their tables.
    for (p, n), coeffs in (((5, 1), (1, 3)), ((5, 1), (2, 0)), ((3, 2), (1, 5)),
                           ((3, 2), (0, 7)), ((3, 3), (0, 0)), ((7, 1), (0, 3, 5)),
                           ((3, 1), (1, 0, 2, 0))):
        ctx = FieldContext(p, n)
        form = QuadraticForm(coeffs)
        dom = PointDomain(ctx, form.d)
        table = form.value_table(dom)
        _assert_fresh_table(table, dom.size)
        for idx in range(dom.size):
            pt = point_of(dom, idx)
            assert int(table[idx]) == eval_quadratic(ctx, form, pt)
            if n == 1:
                assert int(table[idx]) == sum(a * x ** 2 for a, x in zip(coeffs, pt)) % p


def test_polyspec_validation():
    with pytest.raises(ValueError):
        PolySpec(2, ((0, (1, 0)),))
    with pytest.raises(ValueError):
        PolySpec(2, ((1, (1, 0)), (2, (1, 0))))
    with pytest.raises(DimensionMismatchError):
        PolySpec(2, ((1, (1, 0, 0)),))


def test_minkowski_poly_terms():
    spec = minkowski_poly(F5, 3, 2)
    assert (1, (1, 1, 1)) in spec.terms
    assert (F5.neg(2), (0, 0, 0)) in spec.terms
    spec_p = paraboloid_poly(F5, 3)
    assert eval_poly(F5, spec_p, (1, 2, 0)) == 0  # 1 + 4 - 0 = 5 = 0
