import functools
import random
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqspectra.cli as cli_mod
import fqspectra.domains as domains_mod
import fqspectra.spectra as spectra_mod

from fqspectra.cli import main as cli_main
from fqspectra.domains import PointDomain, character_sum_table
from fqspectra.experiments import ExperimentPlan, sumset_experiment
from fqspectra.errors import (
    ExponentDivisibleByCharacteristicError,
    InvariantError,
    SearchSpaceTooLargeError,
)
from fqspectra.field import FieldContext
from fqspectra.geometry import QuadraticForm, builtin_variety, diagonal_poly
from fqspectra.spectra import (
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    merge_multisets,
    mixing_audit,
)

from oracles import (
    add as field_add,
    affine_eigenvalues_broadcast,
    affine_eigenvalues_direct,
    brute_second_eigenvalue,
    character_sums_direct,
    coord_array,
    eigenvalue_table,
    flat_multisets,
    index_add,
    mixing_reference,
    point_of,
    scan_reference,
    spectrum_text_reference,
    sphere_points,
    sub,
    weil_sums_cube,
)

F3 = FieldContext(3)
F5 = FieldContext(5)


def _random_sets(ctx, d, how_many, seed):
    rng = random.Random(seed)
    dom = PointDomain(ctx, d)
    out = []
    for _ in range(how_many):
        count = rng.randint(1, dom.size)
        idxs = rng.sample(range(dom.size), count)
        out.append([point_of(dom, i) for i in idxs])
    return out


def test_whole_group_spectrum():
    pts = [(a, b) for a in range(3) for b in range(3)]
    spec = cayley_spectrum(F3, pts, d=2)
    table = eigenvalue_table(spec)
    assert spec.degree == 9
    assert abs(table[0] - 9) < 1e-9
    assert max(abs(table[m]) for m in range(1, 9)) < 1e-10
    assert spec.lambda_second < 1e-10


def test_paraboloid_spectrum_f3():
    v = builtin_variety(F3, "paraboloid", 2)
    spec = cayley_spectrum(F3, v.points, d=2)
    table = eigenvalue_table(spec)
    for m1 in range(3):
        for m2 in range(3):
            lam = table[3 * m1 + m2]
            if m2 != 0:
                assert abs(abs(lam) - 3 ** 0.5) < 1e-9
            elif m1 != 0:
                assert abs(lam) < 1e-9
    assert spec.lambda_second == pytest.approx(3 ** 0.5)


def test_sphere_spectrum_f3():
    v = builtin_variety(F3, "sphere", 2, 1)
    spec = cayley_spectrum(F3, v.points, d=2)
    table = eigenvalue_table(spec)
    assert table[3] == pytest.approx(1 + 0j, abs=1e-9)  # m = (1, 0)
    assert table[4] == pytest.approx(-2 + 0j, abs=1e-9)  # m = (1, 1)
    assert spec.lambda_second == pytest.approx(2.0)


def test_direct_and_transform_agree_on_50_random_sets():
    for ctx in (F3, F5):
        dom = PointDomain(ctx, 2)
        for pts in _random_sets(ctx, 2, 25, seed=ctx.q):
            idx = dom.as_indices(pts)
            direct = character_sums_direct(dom, idx)
            transform = character_sum_table(dom, idx)
            scale = max(1.0, len(pts))
            assert np.max(np.abs(direct - transform)) < 1e-6 * scale


def test_second_eigenvalue_matches_adjacency_matrix_oracle():
    rng = random.Random(11)
    for p, d in [(3, 2), (5, 2), (3, 3)]:
        ctx = FieldContext(p)
        dom = PointDomain(ctx, d)
        for _ in range(3):
            count = rng.randint(1, dom.size - 1)
            idxs = rng.sample(range(dom.size), count)
            pts = [point_of(dom, i) for i in idxs]
            spec = cayley_spectrum(ctx, pts, d=d)
            want = brute_second_eigenvalue(p, pts, d)
            assert spec.lambda_second == pytest.approx(want, abs=1e-6)


def test_eigenvalues_closed_under_conjugation():
    dom = PointDomain(F5, 2)
    for pts in _random_sets(F5, 2, 5, seed=99):
        table = eigenvalue_table(cayley_spectrum(F5, pts, d=2))
        for m in range(dom.size):
            neg = int(dom.index_neg(m))
            assert table[neg] == pytest.approx(np.conj(table[m]), abs=1e-8)


def test_trace_identity():
    for ctx, d in [(F3, 2), (F5, 2), (F3, 3)]:
        for pts in _random_sets(ctx, d, 5, seed=13 * ctx.q + d):
            table = eigenvalue_table(cayley_spectrum(ctx, pts, d=d))
            expected = ctx.q ** d if (0,) * d in set(pts) else 0
            assert abs(np.sum(table) - expected) < 1e-6 * max(1, len(pts))


def _euclidean(ctx, form, t, d):
    dom = PointDomain(ctx, d)
    return euclidean_spectrum(dom, form.value_table(dom), t)


def test_euclidean_spectrum_f3_t1():
    spec, check = _euclidean(F3, QuadraticForm.identity(2), 1, 2)
    assert spec.degree == 4
    assert spec.lambda_second == pytest.approx(2.0)
    assert check.within and check.bound == pytest.approx(2 * 3 ** 0.5)


def test_euclidean_spectrum_f5_bound_and_oracle():
    spec, check = _euclidean(F5, QuadraticForm.identity(2), 1, 2)
    assert check.within
    want = brute_second_eigenvalue(5, sphere_points(5, 2, 1), 2)
    assert spec.lambda_second == pytest.approx(want, abs=1e-6)
    assert spec.lambda_second <= 2 * 5 ** 0.5 + 1e-6


@pytest.mark.parametrize("p,n,d,form", [
    (5, 1, 2, "identity"), (3, 2, 2, "identity"), (5, 2, 2, "identity"),
    (5, 1, 2, "diag:1,2"), (3, 2, 2, "diag:1,2"), (5, 2, 2, "diag:1,2"), (3, 3, 2, "diag:1,2"),
    (7, 1, 3, "diag:1,3,5"), (13, 1, 2, "diag:2,5"), (3, 3, 3, "identity"),
    (31, 1, 3, "identity"),
])
def test_scaling_by_c_carries_level_t_onto_level_c_squared_t(p, n, d, form):
    # x -> c*x maps {Q = t} onto {Q = c^2 t}, so lambda_{c^2 t}(m) = lambda_t(c*m):
    # the levels of one square class share degree, lambda_second and lambda_mixing.
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    qvals = QuadraticForm.parse(form, d).value_table(dom)
    levels = range(1, ctx.q)
    specs = {t: euclidean_spectrum(dom, qvals, t)[0] for t in levels}
    tables = {t: character_sum_table(dom, np.flatnonzero(qvals == t)) for t in levels}
    for c in levels:
        scaled = sum(ctx.mul_vec(coord_array(dom, j), np.int64(c)) * ctx.q ** (d - 1 - j)
                     for j in range(d))
        for t in levels:
            s = ctx.mul(ctx.mul(c, c), t)
            assert specs[s].degree == specs[t].degree
            assert np.max(np.abs(tables[s] - tables[t][scaled])) <= 1e-9
            for key in ("lambda_second", "lambda_mixing"):
                assert getattr(specs[s], key) == pytest.approx(getattr(specs[t], key),
                                                               rel=1e-9)


def test_euclidean_t0_is_flagged_not_asserted():
    spec, check = _euclidean(F3, QuadraticForm.identity(2), 0, 2)
    assert check.within  # vacuously: nothing asserted
    assert "outside" in check.note


def test_euclidean_degenerate_form_rejected(capsys):
    # `spectrum euclidean` checks the form before it builds the value table.
    assert cli_main(["spectrum", "euclidean", "--p", "5", "--d", "2", "--t", "1",
                     "--form", "diag:1,0"]) == 1
    assert "DegenerateFormError" in capsys.readouterr().err


def test_euclidean_checks_the_budget_before_the_value_table(monkeypatch, capsys):
    monkeypatch.setattr(domains_mod, "TABLE_MAX", 24)
    built = []
    monkeypatch.setattr(QuadraticForm, "value_table", lambda *a: built.append(a))
    assert cli_main(["spectrum", "euclidean", "--p", "5", "--d", "2", "--t", "1"]) == 1
    assert "SearchSpaceTooLargeError" in capsys.readouterr().err and not built
    with pytest.raises(SearchSpaceTooLargeError):
        euclidean_spectrum(PointDomain(F5, 2), np.zeros(25, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        euclidean_spectrum(PointDomain(F5, 1), np.zeros(25, dtype=np.int64), 1)


def test_affine_spectrum_q3_s2_exact():
    spec, check = affine_cayley_spectrum(F3, 1, 2)
    assert spec.order == 27 and spec.degree == 9
    dom = PointDomain(F3, 3)
    table = eigenvalue_table(spec)
    for m in range(27):
        m0 = point_of(dom, m)[0]
        lam = abs(table[m])
        if m0 != 0:
            assert lam == pytest.approx(3.0, abs=1e-9)
        elif m != 0:
            assert lam < 1e-9
    assert abs(spec.lambda_second - 3.0) < 1e-9
    assert check.within


def test_affine_spectrum_q5_s2():
    spec, check = affine_cayley_spectrum(F5, 1, 2)
    assert abs(spec.lambda_second - 5.0) < 1e-9
    assert check.within


def test_affine_closed_matches_direct():
    for ctx, d, s in [(F3, 1, 2), (F5, 1, 2), (F5, 1, 3), (F3, 2, 2)]:
        closed, _ = affine_cayley_spectrum(ctx, d, s, tuple(range(1, d + 1)))
        direct = affine_eigenvalues_direct(ctx, s, tuple(range(1, d + 1)), d)
        assert np.max(np.abs(eigenvalue_table(closed) - direct)) < 1e-6 * closed.degree


def test_affine_weil_ceiling_attained_over_f25():
    # Over F_25 with s = 3 a nontrivial eigenvalue reaches Weil's ceiling
    # (s-1)^(2d) * q^d = 100 exactly, while q^d = 25 is exceeded fourfold.
    F25 = FieldContext(5, 2)
    closed, check = affine_cayley_spectrum(F25, 1, 3)
    direct = affine_eigenvalues_direct(F25, 3, (1,), 1)
    assert np.max(np.abs(eigenvalue_table(closed) - direct)) < 1e-6 * closed.degree
    assert closed.lambda_second == pytest.approx(100.0, abs=1e-9)
    assert check.bound == 100.0 and check.within
    assert check.normalized_bound == 25.0


def test_affine_trivial_eigenvalue_is_degree():
    spec, _ = affine_cayley_spectrum(F5, 1, 3)
    assert eigenvalue_table(spec)[0] == pytest.approx(25.0 + 0j, abs=1e-9)


def test_affine_rejects_bad_exponent_and_shape():
    with pytest.raises(ExponentDivisibleByCharacteristicError):
        affine_cayley_spectrum(F3, 1, 3)


@pytest.mark.parametrize("d,s,coeffs", [(2, 1, None), (2, 2, (1, 0)), (2, 2, (1, 2, 3))])
def test_affine_spectrum_and_diagonal_poly_reject_alike(d, s, coeffs):
    # s < 2, a zero coefficient, a wrong coefficient count: one checker.
    with pytest.raises(ValueError) as poly_error:
        diagonal_poly(F5, d, s, coeffs)
    with pytest.raises(ValueError) as spectrum_error:
        affine_cayley_spectrum(F5, d, s, coeffs)
    assert spectrum_error.type is poly_error.type
    assert str(spectrum_error.value) == str(poly_error.value)


@pytest.mark.parametrize("d", [0, -1])
def test_affine_spectrum_and_diagonal_poly_reject_dimension_below_1(d):
    # The dimension is checked before the coefficients are counted.
    for build in (diagonal_poly, affine_cayley_spectrum):
        with pytest.raises(ValueError, match=rf"^dimension d = {d} must be >= 1$"):
            build(F5, d, 2)


# Fields F_5, F_7, F_9, F_13, F_23, F_25 with d = 1..3 and s = 2, 3, 4 (p not
# dividing s), kept to q^(2d+1) <= 10^6 cells, plus the 23^5-cell F_23, d = 2
# case that the sumset benchmark runs.
AFFINE_GRID = [((p, n), d, s)
               for p, n in ((5, 1), (7, 1), (3, 2), (13, 1), (23, 1), (5, 2))
               for d in (1, 2, 3) for s in (2, 3, 4)
               if s % p and (p ** n) ** (2 * d + 1) <= 10 ** 6] + [((23, 1), 2, 2)]


@pytest.mark.parametrize("pn,d,s", AFFINE_GRID)
def test_affine_slices_equal_the_broadcast_table_bit_for_bit(pn, d, s):
    # uint64 views compare every bit, signed zeros included.
    ctx = FieldContext(*pn)
    coeffs = tuple(range(1, d + 1))
    spec, _ = affine_cayley_spectrum(ctx, d, s, coeffs)
    want = affine_eigenvalues_broadcast(ctx, s, coeffs, d).view(np.uint64)
    width = 2 * ctx.q ** (2 * d)  # two uint64 words per complex cell
    count = 0
    for m0, part in enumerate(spec.slices()):
        assert part.dtype == np.complex128 and part.shape == (width // 2,)
        assert np.array_equal(part.view(np.uint64), want[m0 * width:(m0 + 1) * width])
        count += 1
    assert count == ctx.q


# Beyond the grid: s = 9 over F_5 and s = 13 over F_7 are 1 mod q - 1, so
# every slice holds one cell of modulus equal to the degree and the rest 0;
# over F_9 with s = 4 the connection set lies in a coset.
CLOSED_FORM_CASES = AFFINE_GRID + [((5, 1), 1, 9), ((7, 1), 1, 13), ((3, 2), 3, 4)]


@pytest.mark.parametrize("pn,d,s", CLOSED_FORM_CASES)
def test_affine_closed_form_summary_matches_the_table_scan(pn, d, s):
    ctx = FieldContext(*pn)
    spec, _ = affine_cayley_spectrum(ctx, d, s)
    table = affine_eigenvalues_broadcast(ctx, s, (1,) * d, d)
    lam, _, lam_mixing, _ = scan_reference(table, spec.degree)
    mods = np.abs(table)
    for got, want, arg in ((spec.lambda_second, lam, spec.argmax_m),
                           (spec.lambda_mixing, lam_mixing, spec.argmax_mixing)):
        # The scan's value is rounding noise where every slice is excluded.
        assert (abs(got - want) <= 1e-12 * want
                or want < 1e-9 * spec.degree and abs(got - want) <= 1e-9 * spec.degree)
        assert abs(mods[arg] - got) <= 1e-12 * max(got, 1.0)
        assert arg != 0


def _corrupt_weil_sums(monkeypatch, a, b):
    """Double W(a, b), or set it to 1 where it is 0 up to rounding."""
    real = spectra_mod._weil_sums

    def corrupted(ctx, s):
        W = real(ctx, s)
        W[a, b] = 2 * W[a, b] if abs(W[a, b]) > 1e-9 else 1.0
        return W

    monkeypatch.setattr(spectra_mod, "_weil_sums", corrupted)


@pytest.mark.parametrize("a,b", [(0, 3), (1, 0), (4, 1)])
def test_corrupted_weil_sum_fails_parseval(a, b, monkeypatch):
    _corrupt_weil_sums(monkeypatch, a, b)
    with pytest.raises(InvariantError, match="Parseval"):
        affine_cayley_spectrum(F5, 1, 3)


def test_corrupted_trivial_weil_sum_raises_invariant_error(monkeypatch):
    _corrupt_weil_sums(monkeypatch, 0, 0)
    with pytest.raises(InvariantError, match="trivial"):
        affine_cayley_spectrum(F5, 2, 2)


# (p, n), d, s, coeffs and the repr-exact lambda_second, argmax_m and
# lambda_mixing of the closed-form affine spectrum.  Over F_9 with s = 4 the
# connection set lies in a coset: lambda_mixing is the degree 9^6.  For s = 2
# every cell of a slice m0 != 0 has the modulus q^d up to rounding, and
# argmax_m is the first cell of the first maximising rows, not the cell whose
# complex product happens to round highest.
AFFINE_PINS = [
    ((23, 1), 2, 2, None, 529.0000000000013, 2391560, 529.0000000000013),
    ((5, 1), 1, 3, None, 13.090169943749475, 34, 13.090169943749475),
    ((5, 2), 1, 3, None, 100.0, 625, 100.0),
    ((7, 1), 2, 2, (1, 2), 49.00000000000001, 2401, 49.00000000000001),
    ((3, 2), 2, 2, None, 81.0000000000001, 9001, 81.0000000000001),
    ((13, 1), 2, 3, (2, 5), 1597.4282157187304, 85862, 1597.4282157187304),
    ((3, 2), 3, 4, None, 729.0000000000014, 531441, 531441.0),
]


@pytest.mark.parametrize("pn,d,s,coeffs,lam,arg,lam_mixing", AFFINE_PINS)
def test_affine_summary_constants_are_pinned(pn, d, s, coeffs, lam, arg, lam_mixing):
    ctx = FieldContext(*pn)
    spec, _ = affine_cayley_spectrum(ctx, d, s, coeffs)
    got = (repr(spec.lambda_second), spec.argmax_m, repr(spec.lambda_mixing))
    assert got == (repr(lam), arg, repr(lam_mixing))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_affine_spectrum_peaks_below_a_quarter_of_its_table():
    # The summary reads the 23 x 23 Weil sums, not the 103 MB table.
    (spec, _), peak = _traced_peak(affine_cayley_spectrum, FieldContext(23), 2, 2)
    assert peak < 2 ** 20
    assert repr(spec.lambda_second) == "529.0000000000013"


def test_weil_sums_are_filled_without_their_cube():
    # Over F_211 the (a, b, u) cube of W would be 150 MB of complex cells;
    # the blocked fill holds one row of it at a time.
    (spec, _), peak = _traced_peak(affine_cayley_spectrum, FieldContext(211), 1, 3)
    assert peak < 6 * 2 ** 20
    assert repr(spec.lambda_second) == "804.1397129466183"


@pytest.mark.parametrize("block", [1, 30, 600, 1 << 16])
def test_blocked_weil_sums_equal_the_cube_bit_for_bit(block, monkeypatch):
    # F_47 takes two row blocks at the default size, the others one.
    monkeypatch.setattr(spectra_mod, "_SCAN_BLOCK", block)
    for pn, s in [((5, 1), 3), ((3, 2), 4), ((23, 1), 2), ((47, 1), 3)]:
        ctx = FieldContext(*pn)
        got = spectra_mod._weil_sums(ctx, s).view(np.uint64)
        assert np.array_equal(got, weil_sums_cube(ctx, s).view(np.uint64))


def test_affine_table_is_built_only_when_read(tmp_path):
    # The spectrum holds its scan's constants and the slice generator, and
    # no table; only a reader outside the program concatenates one.
    spec, _ = affine_cayley_spectrum(F5, 2, 3)
    path = tmp_path / "spectrum.txt"
    cli_mod._write_spectrum(spec, path)
    assert not any(isinstance(v, np.ndarray) for v in vars(spec).values())
    table = eigenvalue_table(spec)
    assert len(table) == spec.order == 5 ** 5
    assert path.read_text() == spectrum_text_reference(table)


def _reachable_arrays(root):
    """The NumPy arrays reachable from root through instance attributes,
    closure cells, partial arguments and containers; module globals are not
    followed."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, functools.partial):
            stack += [*obj.args, *obj.keywords.values()]
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, (list, tuple, set)):
            stack += obj
        elif hasattr(obj, "__dict__") and not isinstance(obj, (type, types.ModuleType)):
            stack += vars(obj).values()
    return out


@pytest.mark.parametrize("p,n,d", [(5, 1, 3), (3, 2, 2)])
def test_cayley_spectrum_holds_no_table_and_rebuilds_it(p, n, d):
    # A Cayley spectrum keeps its connection set, not its q^d eigenvalues
    # (nor a domain's cached coordinate arrays); each slices() call rebuilds
    # the same table.  Two points take the direct character sums, the
    # sphere and a Euclidean level set the transform.
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    level = QuadraticForm.identity(d).value_table(dom) == 1
    for idx in (np.array([0, 1]), builtin_variety(ctx, "sphere", d, 1).indices,
                np.flatnonzero(level)):
        spec = cayley_spectrum(ctx, idx, d=d)
        assert max(a.size for a in _reachable_arrays(spec)) < dom.size
        table = eigenvalue_table(spec)
        assert np.array_equal(table, character_sum_table(dom, idx))
        assert np.array_equal(eigenvalue_table(spec), table)
    spec, _ = euclidean_spectrum(dom, np.where(level, 1, 0), 1)
    assert max(a.size for a in _reachable_arrays(spec)) < dom.size


def test_sumset_runner_and_spectrum_affine_never_build_the_affine_table(
        monkeypatch, capsys, tmp_path):
    # The summary comes from the Weil sums alone: the runner and the command
    # read no slice, and `--out` reads the q slices once, one at a time.
    real = spectra_mod._affine_slices
    passes = []

    def counted(*args):
        passes.append(0)
        for part in real(*args):
            passes[-1] += 1
            yield part

    monkeypatch.setattr(spectra_mod, "_affine_slices", counted)
    plan = ExperimentPlan(p=7, d=2, k=3, s=2, sizes=(3, 6), sizes_mode="absolute",
                          x_sizes=(1, 3), trials=2, seed=1)
    assert sumset_experiment(plan).hard_failures == 0
    argv = ["spectrum", "affine", "--p", "5", "--d", "1", "--s", "3"]
    assert cli_main(argv) == 0
    assert passes == []
    assert cli_main(argv + ["--out", str(tmp_path / "spectrum.txt")]) == 0
    capsys.readouterr()
    assert passes == [5]


def _coset_spectra(ctx):
    """Cayley spectra over F_q^2 of one and of two cosets of {0} x F_q: the
    first has q eigenvalues of modulus equal to the degree, the second ties
    at its second eigenvalue (m1 and -m1)."""
    q = ctx.q
    one = [(1, y) for y in range(q)]
    two = one + [(2, y) for y in range(q)]
    return [cayley_spectrum(ctx, conn, d=2) for conn in (one, two)]


@pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 64])
def test_blocked_scan_equals_the_whole_table_scan(block, monkeypatch):
    cases = []
    for ctx in (F5, FieldContext(7), FieldContext(3, 2)):
        cases += [(PointDomain(ctx, 2), eigenvalue_table(spec), spec.degree)
                  for spec in _coset_spectra(ctx)]
    for ctx, d, s in [(F5, 1, 3), (FieldContext(3, 2), 1, 4), (F3, 1, 2)]:
        cases.append((PointDomain(ctx, 2 * d + 1),
                      affine_eigenvalues_broadcast(ctx, s, (1,) * d, d), ctx.q ** (2 * d)))
    monkeypatch.setattr(spectra_mod, "_SCAN_BLOCK", block)
    for dom, table, degree in cases:
        spec = spectra_mod._scan_spectrum(dom, degree, lambda: (table,))
        got = (repr(spec.lambda_second), spec.argmax_m, repr(spec.lambda_mixing),
               spec.argmax_mixing)
        lam, arg, lam_mixing, arg_mixing = scan_reference(table, degree)
        assert got == (repr(lam), arg, repr(lam_mixing), arg_mixing)
        with pytest.raises(InvariantError):
            spectra_mod._scan_spectrum(dom, degree + 1, lambda: (table,))
    # the blocks must straddle the coset entries of modulus equal to the degree
    one, _ = _coset_spectra(F5)
    deg_idx = np.flatnonzero(np.abs(np.abs(eigenvalue_table(one)) - one.degree) < 1e-9)
    assert deg_idx.tolist() == [0, 5, 10, 15, 20]


def test_cayley_duplicate_connection_set_rejected():
    with pytest.raises(ValueError):
        cayley_spectrum(F3, [(1, 0), (1, 0)], d=2)


def test_spectrum_size_guard():
    ctx = FieldContext(1021)
    with pytest.raises(SearchSpaceTooLargeError):
        cayley_spectrum(ctx, [(1, 0, 0)], d=3)


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_index_arithmetic_matches_field_arithmetic(p, n, d):
    # Orientation and carries of the flat-index group law, coordinate by
    # coordinate, for arrays and for Python ints.
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    rng = np.random.default_rng(p * 100 + n * 10 + d)
    A = rng.integers(0, dom.size, 300)
    B = rng.integers(0, dom.size, 300)
    add, diff, neg = index_add(dom, A, B), dom.index_sub(A, B), dom.index_neg(A)
    for i, (a, b) in enumerate(zip(A.tolist(), B.tolist())):
        x, y = point_of(dom, a), point_of(dom, b)
        assert dom.index_of(x) == a
        assert point_of(dom, add[i]) == tuple(field_add(ctx, u, v) for u, v in zip(x, y))
        assert point_of(dom, diff[i]) == tuple(sub(ctx, u, v) for u, v in zip(x, y))
        assert point_of(dom, neg[i]) == tuple(ctx.neg(u) for u in x)
        assert index_add(dom, a, b) == add[i] and dom.index_sub(a, b) == diff[i]
    assert np.array_equal(dom.as_indices([point_of(dom, a) for a in A.tolist()]), A)
    # The flat (c, b) pairs `mixing_audit` subtracts: each entry's digits
    # taken once, then gathered with the entries.
    at_a, at_b = rng.integers(0, 300, 1000), rng.integers(0, 300, 1000)
    pairs = dom.index_sub(A[at_a], B[at_b], ([a[at_a] for a in dom.digits(A)],
                                             [b[at_b] for b in dom.digits(B)]))
    for i, j, diff in zip(at_a.tolist(), at_b.tolist(), pairs.tolist()):
        assert diff == dom.index_sub(int(A[i]), int(B[j]))
    assert dom.index_neg(0) == 0


def test_corrupted_trivial_eigenvalue_raises_invariant_error(monkeypatch):
    real = spectra_mod.character_sum_table

    def corrupted(dom, points):
        lam = real(dom, points)
        lam[0] += 1.0
        return lam

    monkeypatch.setattr(spectra_mod, "character_sum_table", corrupted)
    with pytest.raises(InvariantError):
        cayley_spectrum(F3, [(1, 0), (0, 1)], d=2)


def _double_largest_after_the_first(lam):
    """A copy of a slice with its largest modulus past cell 0 doubled, so the
    trivial eigenvalue of the first slice stays intact."""
    lam = lam.copy()
    lam[1 + int(np.argmax(np.abs(lam[1:])))] *= 2
    return lam


def test_corrupted_nontrivial_eigenvalue_fails_parseval(monkeypatch):
    # Single slice: V's Cayley spectrum, built from one character-sum table.
    real_table = spectra_mod.character_sum_table
    monkeypatch.setattr(spectra_mod, "character_sum_table",
                        lambda dom, points: _double_largest_after_the_first(
                            real_table(dom, points)))
    v = builtin_variety(F5, "sphere", 2, 1)
    with pytest.raises(InvariantError, match="Parseval"):
        cayley_spectrum(F5, v.indices, d=2)
    # The affine spectrum: one of its Weil sums, W(2, 4), doubled.
    _corrupt_weil_sums(monkeypatch, 2, 4)
    with pytest.raises(InvariantError, match="Parseval"):
        affine_cayley_spectrum(F5, 1, 3)


def _member(dom, conn):
    member = np.zeros(dom.size, dtype=bool)
    member[conn] = True
    return member


def _one_pair(B, C):
    """The merged multisets of a single pair of {index: mult} dicts."""
    def one(M):
        return (np.array([len(M)]), np.array(list(M), dtype=np.int64),
                np.array(list(M.values()), dtype=np.int64))
    return one(B), one(C)


def test_mixing_audit_whole_vertex_set():
    v = builtin_variety(F3, "sphere", 2, 1)
    spec = cayley_spectrum(F3, v.points, d=2)
    dom = PointDomain(F3, 2)
    everything = Counter({i: 1 for i in range(dom.size)})
    audit = mixing_audit(spec, dom, _member(dom, v.indices),
                         *_one_pair(everything, everything))
    assert audit.count[0] == dom.size * spec.degree
    assert audit.bound[0] - audit.deviation[0] >= 0 and audit.ok[0]


def test_mixing_audit_sphere_worked_example():
    v = builtin_variety(F3, "sphere", 2, 1)
    spec = cayley_spectrum(F3, v.points, d=2)
    dom = PointDomain(F3, 2)
    B = Counter({int(i): 1 for i in v.indices})
    audit = mixing_audit(spec, dom, _member(dom, v.indices), *_one_pair(B, B))
    assert audit.count[0] == 4
    assert audit.bound[0] == pytest.approx(8.0)
    assert audit.ok[0]


def test_mixing_audit_multiplicity_scaling():
    v = builtin_variety(F3, "sphere", 2, 1)
    spec = cayley_spectrum(F3, v.points, d=2)
    dom = PointDomain(F3, 2)
    member = _member(dom, v.indices)
    single = Counter({0: 1})
    triple = Counter({0: 3})
    a1 = mixing_audit(spec, dom, member, *_one_pair(single, single))
    a3 = mixing_audit(spec, dom, member, *_one_pair(triple, single))
    # squared multiplicities on the B side sum to 9, contributing sqrt(9) = 3
    assert a3.bound[0] == pytest.approx(3 * a1.bound[0])
    assert a3.count[0] == 3 * a1.count[0]


MIXING_FIELDS = {5: F5, 9: FieldContext(3, 2), 27: FieldContext(3, 3)}


@st.composite
def _mixing_block(draw):
    """A field, a connection set and a block of multiset pairs (B_i, C_i) as
    lists of (point, multiplicity) draws.  The first pair always has a
    support of size 1 and a repeated point."""
    ctx = MIXING_FIELDS[draw(st.sampled_from(sorted(MIXING_FIELDS)))]
    dom = PointDomain(ctx, draw(st.integers(1, 3)))
    conn = draw(st.lists(st.integers(0, dom.size - 1), min_size=1,
                         max_size=min(dom.size, 40), unique=True))
    points = st.integers(0, min(dom.size, 6) - 1) | st.integers(0, dom.size - 1)
    mults = st.integers(1, 5) | st.integers(1, 1 << 40)
    draws = st.lists(st.tuples(points, mults), min_size=1, max_size=10)
    a, m1, m2, m3 = draw(points), draw(mults), draw(mults), draw(mults)
    pairs = [([(a, m1)], [(a, m2), (a, m3)])]
    pairs += draw(st.lists(st.tuples(draws, draws), max_size=12))
    return dom, conn, pairs


def _audit_against_reference(dom, conn, pairs):
    """Merge a block of pairs of (point, multiplicity) draws, audit it, and
    check every pair against the per-pair reference."""
    spec = cayley_spectrum(dom.ctx, np.array(conn, dtype=np.int64), d=dom.d)
    B, C = (merge_multisets(*flat_multisets(side), dom.size) for side in zip(*pairs))
    counters = [[Counter() for _ in pairs], [Counter() for _ in pairs]]
    for i, pair in enumerate(pairs):
        for side, multiset in enumerate(pair):
            for x, m in multiset:
                counters[side][i][x] += m
    for merged, side in zip((B, C), counters):
        support, idx, mult = merged
        assert support.tolist() == [len(M) for M in side]
        assert idx.tolist() == [x for M in side for x in sorted(M)]
        assert mult.tolist() == [M[x] for M in side for x in sorted(M)]
    audit = mixing_audit(spec, dom, _member(dom, conn), B, C)
    for i, (Bi, Ci) in enumerate(zip(*counters)):
        e, _, _, _, gap, ok = mixing_reference(dom.ctx.p, dom.size, conn,
                                               spec.lambda_mixing, spec.degree, Bi, Ci)
        assert (audit.count[i], audit.bound[i] - audit.deviation[i], audit.ok[i]) == (e, gap, ok)


@given(_mixing_block())
@settings(max_examples=60, deadline=None)
def test_mixing_batch_matches_per_pair_reference(block):
    _audit_against_reference(*block)


@pytest.mark.parametrize("pairs", [
    # a point repeated inside one multiset, on either side
    [([(3, 2), (7, 1), (3, 5)], [(4, 1)]), ([(1, 1)], [(2, 4), (2, 4), (9, 1)])],
    # supports 1 and max_support (10) in the same block
    [([(i, i + 1) for i in range(10)], [(5, 2)]), ([(0, 1)], [(0, 3)]),
     ([(8, 1)], [(i, 1) for i in range(10, 20)])],
    # B and C of unequal support
    [([(1, 1), (2, 1), (3, 1), (4, 2)], [(6, 1)]),
     ([(5, 3)], [(10, 1), (11, 2), (12, 3), (13, 4), (14, 5)])],
], ids=["repeated-point", "supports-1-and-max", "unequal-supports"])
@pytest.mark.parametrize("field,d", [(5, 2), (9, 2), (27, 1)])
def test_mixing_blocks_match_per_pair_reference(pairs, field, d):
    dom = PointDomain(MIXING_FIELDS[field], d)
    conn = sorted({(7 * x + 3) % dom.size for x in range(0, dom.size, 2)})
    _audit_against_reference(dom, conn, pairs)


def test_mixing_audit_memory_follows_the_pairs_not_a_padded_grid():
    # One 300-point multiset among 1-point ones: 300 + 199 (b, c) pairs.  The
    # padded layout took (rows, 300, 1) grids, 480 KB each in int64; a pair
    # may take 64 int64 words here, on top of 64 KB for the entries.
    dom = PointDomain(FieldContext(31), 2)
    rows = 200
    Bs = [[(x, 1) for x in range(300)]] + [[(x % dom.size, 2)] for x in range(rows - 1)]
    Cs = [[(5, 1)]] * rows
    B, C = (merge_multisets(*flat_multisets(side), dom.size) for side in (Bs, Cs))
    sphere = builtin_variety(dom.ctx, "sphere", 2, 1).indices
    member = _member(dom, sphere)
    spec = cayley_spectrum(dom.ctx, sphere, d=2)
    mixing_audit(spec, dom, member, B, C)  # warm-up
    tracemalloc.start()
    try:
        audit = mixing_audit(spec, dom, member, B, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 300 + rows - 1
    assert len(audit.ok) == rows
    assert peak < 64 * 8 * cells + (64 << 10)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", ["sphere", "paraboloid", "minkowski"])
def test_variety_cayley_constant_small_grid(p, d, family):
    ctx = FieldContext(p)
    v = builtin_variety(ctx, family, d, 1 if family != "paraboloid" else None)
    spec = cayley_spectrum(ctx, v.points, d=d)
    assert spec.lambda_second / ctx.q ** ((d - 1) / 2) <= 2.0 + 1e-6


@pytest.mark.parametrize("rows", [7, 1 << 16])
@pytest.mark.parametrize("case", ["cayley-F9", "euclidean-F7", "affine-F5", "affine-F25"])
def test_spectrum_out_text_equals_the_per_cell_format(case, rows, tmp_path, monkeypatch):
    F9, F7, F25 = FieldContext(3, 2), FieldContext(7), FieldContext(5, 2)
    spec = {
        "cayley-F9": lambda: cayley_spectrum(F9, builtin_variety(F9, "sphere", 2, 1).indices,
                                             d=2),
        "euclidean-F7": lambda: _euclidean(F7, QuadraticForm.identity(2), 1, 2)[0],
        "affine-F5": lambda: affine_cayley_spectrum(F5, 1, 3)[0],
        "affine-F25": lambda: affine_cayley_spectrum(F25, 1, 3)[0],
    }[case]()
    monkeypatch.setattr(cli_mod, "_WRITE_ROWS", rows)
    path = tmp_path / "spectrum.txt"
    cli_mod._write_spectrum(spec, path)
    assert path.read_text() == spectrum_text_reference(eigenvalue_table(spec))


def test_spectrum_out_reprs_keep_signed_zeros_and_specials():
    values = np.array([0.0, -0.0, 1.5, 1.5, -0.0, 5e-324, 1e300, np.inf, np.nan])
    assert cli_mod._reprs(values) == [repr(x) for x in values.tolist()]
    z = np.empty(len(values), dtype=np.complex128)
    z.real, z.imag = values, values[::-1]
    assert cli_mod._reprs(z.imag) == [repr(x) for x in z.imag.tolist()]


def test_export_rows_and_summary(tmp_path):
    v = builtin_variety(F3, "sphere", 2, 1)
    spec = cayley_spectrum(F3, v.points, d=2)
    path = tmp_path / "spectrum.txt"
    cli_mod._write_spectrum(spec, path)
    header, *rows = path.read_text().splitlines()
    assert header == "m re im modulus" and len(rows) == 9
    m, re, im, mod = (float(x) for x in rows[0].split())
    assert m == 0 and re == pytest.approx(4.0) and mod == pytest.approx(4.0)
    summary = spec.summary()
    assert summary["n"] == 9 and summary["degree"] == 4
    assert summary["lambda"] == pytest.approx(2.0)
