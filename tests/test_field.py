import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqspectra.errors import (
    DegreeTooLargeError,
    EvenCharacteristicError,
    InvariantError,
    NotPrimeError,
    OrderTooLargeError,
)
import fqspectra.field as field_mod
from fqspectra.field import FieldContext, is_prime, smallest_irreducible

from oracles import char, inv, mul_poly, pow_poly, smallest_generator_reference


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def test_prime_field_basics():
    ctx = FieldContext(3)
    assert ctx.q == 3
    assert ctx.mul(2, 2) == 1
    ctx5 = FieldContext(5)
    assert ctx5.mul(2, 3) == 1


def test_f9_modulus_is_smallest_irreducible():
    ctx = FieldContext(3, 2)
    assert ctx.modulus == (1, 0, 1)  # x^2 + 1
    # independent scan: no smaller monic quadratic with nonzero constant term
    # is irreducible over F_3
    for b, c in [(0, 0)]:
        assert any(_poly_eval((c, b, 1), x, 3) == 0 for x in range(3))


def test_f9_multiplication_example():
    ctx = FieldContext(3, 2)
    x = ctx.encode([0, 1])
    assert ctx.mul(x, x) == 2  # x^2 = -1 mod x^2+1


@pytest.mark.parametrize("p,n,exc", [
    (2, 1, EvenCharacteristicError),
    (9, 1, NotPrimeError),
    (3, 5, DegreeTooLargeError),
    (1031, 2, OrderTooLargeError),
])
def test_construction_errors(p, n, exc):
    with pytest.raises(exc):
        FieldContext(p, n)


@pytest.mark.parametrize("p,n", [(np.int64(5), 1), (3, np.int64(2)), (np.int32(7), np.int8(3))],
                         ids=["int64-p", "int64-n", "int32-int8"])
def test_numpy_integers_give_the_same_field(p, n):
    got, want = FieldContext(p, n), FieldContext(int(p), int(n))
    assert (type(got.p), type(got.n), type(got.q)) == (int, int, int)
    assert (got.p, got.n, got.q, got.modulus, got.generator) == (
        want.p, want.n, want.q, want.modulus, want.generator)
    assert np.array_equal(got.trace_table, want.trace_table)
    if want.n > 1:
        assert np.array_equal(got._exp, want._exp) and np.array_equal(got._log, want._log)


@pytest.mark.parametrize("p,n", [(3, 2.0), (5.0, 1), ("3", 1)],
                         ids=["float-n", "float-p", "str-p"])
def test_non_integer_p_or_n_raises_type_error_before_construction(p, n, monkeypatch):
    def fail(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(field_mod, "smallest_irreducible", fail)
    monkeypatch.setattr(field_mod, "is_prime", fail)
    with pytest.raises(TypeError):
        FieldContext(p, n)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 1)])
def test_every_nonzero_element_invertible(p, n):
    ctx = FieldContext(p, n)
    for a in range(1, ctx.q):
        assert ctx.mul(a, inv(ctx, a)) == 1


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 4), (7, 3)])
def test_modulus_is_irreducible_by_independent_check(p, n):
    coeffs = smallest_irreducible(p, n)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1 and coeffs[0] != 0
    assert all(_poly_eval(coeffs, x, p) != 0 for x in range(p))
    if n == 4:
        # no quadratic factor: long-divide by every monic quadratic
        for b, c in itertools.product(range(p), repeat=2):
            q3 = coeffs[4]
            q2 = (coeffs[3] - b * q3) % p
            q1 = (coeffs[2] - b * q2 - c * q3) % p
            r1 = (coeffs[1] - b * q1 - c * q2) % p
            r0 = (coeffs[0] - c * q1) % p
            assert (r0, r1) != (0, 0)


def test_character_fixed_values():
    ctx = FieldContext(3)
    assert char(ctx, 0) == 1.0
    assert abs(char(ctx, 1) + char(ctx, 2) + 1) < 1e-12
    f9 = FieldContext(3, 2)
    assert abs(sum(char(f9, v) for v in range(f9.q))) < 1e-10


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (3, 3), (13, 1)])
def test_character_multiplicative_over_addition(p, n):
    ctx = FieldContext(p, n)
    rng = random.Random(20260810)
    for _ in range(1000):
        x = rng.randrange(ctx.q)
        y = rng.randrange(ctx.q)
        assert abs(char(ctx, ctx.add(x, y)) - char(ctx, x) * char(ctx, y)) < 1e-10


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3), (11, 1)])
def test_character_orthogonality(p, n):
    ctx = FieldContext(p, n)
    idx = np.arange(ctx.q, dtype=np.int64)
    for m in range(ctx.q):
        total = ctx.char_vec(ctx.mul_vec(idx, np.int64(m))).sum()
        if m == 0:
            assert total == ctx.q
        else:
            assert abs(total) < 1e-8


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_trace_fibers_have_equal_size(p, n):
    ctx = FieldContext(p, n)
    fibers = np.bincount(ctx.trace_table, minlength=p)
    assert fibers.tolist() == [p ** (n - 1)] * p
    assert np.all(ctx.trace_table < p)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2)])
def test_frobenius_is_additive(p, n):
    ctx = FieldContext(p, n)
    frobenius = ctx.pow_table(p).tolist()
    rng = random.Random(7)
    for _ in range(200):
        x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert frobenius[ctx.add(x, y)] == ctx.add(frobenius[x], frobenius[y])


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_field_axioms_f9(a, b, c):
    ctx = FieldContext(3, 2)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
    assert ctx.add(a, ctx.neg(a)) == 0


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (17, 4)])
def test_log_table_path_matches_polynomial_path(p, n):
    ctx = FieldContext(p, n)
    assert ctx.generator is not None
    if ctx.q <= 27:
        pairs = itertools.product(range(ctx.q), repeat=2)
    else:  # F_{17^4}, q > 2^16: sampled pairs
        rng = random.Random(ctx.q)
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(2000)]
    for a, b in pairs:
        assert ctx.mul(a, b) == mul_poly(ctx, a, b)


def test_vectorized_ops_match_scalar():
    rng = random.Random(3)
    for p, n in [(3, 1), (3, 2), (5, 2), (3, 3)]:
        ctx = FieldContext(p, n)
        A = np.array([rng.randrange(ctx.q) for _ in range(64)], dtype=np.int64)
        B = np.array([rng.randrange(ctx.q) for _ in range(64)], dtype=np.int64)
        for vec, scal in [(ctx.add_vec, ctx.add), (ctx.mul_vec, ctx.mul)]:
            got = vec(A, B)
            want = [scal(int(a), int(b)) for a, b in zip(A, B)]
            assert got.tolist() == want
        got = ctx.mul_vec(A, B)
        want = [mul_poly(ctx, int(a), int(b)) for a, b in zip(A, B)]
        assert got.tolist() == want


def test_pow_table():
    ctx = FieldContext(5)
    t = ctx.pow_table(3)
    assert t.tolist() == [pow(v, 3, 5) for v in range(5)]
    f9 = FieldContext(3, 2)
    t9 = f9.pow_table(2)
    assert all(t9[v] == f9.mul(v, v) for v in range(9))


# Extension fields for the property tests: F_9, F_25, F_27, F_{13^4}, and
# F_{17^4} with q > 2^16.
EXT_FIELDS = [(3, 2), (5, 2), (3, 3), (13, 4), (17, 4)]


@functools.lru_cache(maxsize=None)
def _cached_field(p, n):
    return FieldContext(p, n)


@st.composite
def _ext_elements(draw, count):
    ctx = _cached_field(*draw(st.sampled_from(EXT_FIELDS)))
    return ctx, [draw(st.integers(0, ctx.q - 1)) for _ in range(count)]


@given(_ext_elements(2))
@settings(max_examples=300, deadline=None)
def test_extension_scalar_ops_match_polynomial_reference(field_elements):
    ctx, (a, b) = field_elements
    assert ctx.mul(a, b) == mul_poly(ctx, a, b)


@given(_ext_elements(32))
@settings(max_examples=100, deadline=None)
def test_extension_mul_vec_matches_polynomial_reference(field_elements):
    ctx, elements = field_elements
    A = np.array(elements[:16], dtype=np.int64)
    B = np.array(elements[16:], dtype=np.int64)
    want = [mul_poly(ctx, int(a), int(b)) for a, b in zip(A, B)]
    assert ctx.mul_vec(A, B).tolist() == want
    assert ctx.mul_vec(A[:, None], B[None, :]).diagonal().tolist() == want


@pytest.mark.parametrize("p,n", [(7, 1), (31, 1)] + EXT_FIELDS)
def test_pow_table_matches_polynomial_reference(p, n):
    ctx = _cached_field(p, n)
    q = ctx.q
    rng = random.Random(q)
    sample = range(q) if q <= 1000 else [0, 1, q - 1] + [rng.randrange(q) for _ in range(64)]
    for e in (0, 1, 2, 3, q - 1, q, q + 1):
        table = ctx.pow_table(e)
        assert table.dtype == np.int64 and table.shape == (q,)
        assert [int(table[v]) for v in sample] == [pow_poly(ctx, v, e) for v in sample]


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_pow_table_rejects_negative_exponent(p, n):
    with pytest.raises(ValueError):
        FieldContext(p, n).pow_table(-1)


@pytest.mark.parametrize("p,n", EXT_FIELDS)
def test_log_inverts_exp(p, n):
    ctx = _cached_field(p, n)
    i = np.arange(ctx.q - 1)
    assert ctx._exp[1] == ctx.generator
    assert np.array_equal(ctx._log[ctx._exp[i]], i)
    assert np.array_equal(ctx._exp[ctx.q - 1:], ctx._exp[i])


def test_non_generator_is_caught(monkeypatch):
    # With the generator search returning 2 = -1 in F_9, of order 2, its
    # powers miss most of F_9^*.
    monkeypatch.setattr(FieldContext, "_smallest_generator", lambda self, powers: 2)
    with pytest.raises(InvariantError):
        FieldContext(3, 2)


# Every extension field with q <= 2^12.
SMALL_EXTENSIONS = [(p, n) for n in (2, 3, 4) for p in range(3, 65)
                    if is_prime(p) and p ** n <= 1 << 12]


@pytest.mark.parametrize("p,n", SMALL_EXTENSIONS)
def test_generator_search_matches_the_scalar_search(p, n):
    ctx = FieldContext(p, n)
    assert ctx.generator == smallest_generator_reference(ctx)
    assert ctx._exp[1] == ctx.generator


def _trace_reference(ctx, a):
    """Tr(a) = a + a^p + ... + a^(p^(n-1)): Frobenius powers by `pow_poly`,
    added digit by digit."""
    acc, power = 0, a
    for _ in range(ctx.n):
        acc = ctx.encode(x + y for x, y in zip(ctx.digits(acc), ctx.digits(power)))
        power = pow_poly(ctx, power, ctx.p)
    return acc


@pytest.mark.parametrize("p,n", SMALL_EXTENSIONS + [(17, 4), (31, 4)])
def test_trace_table_is_the_sum_of_frobenius_powers(p, n):
    ctx = FieldContext(p, n)
    rng = random.Random(ctx.q)
    elements = (range(ctx.q) if ctx.q <= 1 << 12
                else [0, 1, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(300)])
    assert [int(ctx.trace_table[a]) for a in elements] == [
        _trace_reference(ctx, a) for a in elements]
