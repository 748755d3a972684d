"""Exact arithmetic in F_q, q = p^n with p an odd prime, plus the absolute
trace and the canonical additive character chi(x) = exp(2*pi*i*Tr(x)/p).

Elements are encoded as integers 0..q-1 read as base-p coefficient vectors:
the integer sum(c_i * p^i) stands for the polynomial sum(c_i * X^i) modulo a
fixed monic irreducible polynomial of degree n.  The modulus is chosen
deterministically (lexicographically smallest irreducible candidate), so the
encoding is reproducible bit-for-bit across runs and machines.

A FieldContext is immutable after construction and every operation is pure,
so contexts can be shared freely between threads.
"""

import math

import numpy as np

from .errors import (
    DegreeTooLargeError,
    EvenCharacteristicError,
    InvariantError,
    InverseOfZeroError,
    NotPrimeError,
    OrderTooLargeError,
)

MAX_DEGREE = 4
MAX_ORDER = 1 << 20
# Discrete log/antilog tables are built up to this order; beyond it extension
# multiplication falls back to polynomial arithmetic.
LOG_TABLE_MAX = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient lists a*b modulo (modulus, p).  modulus is monic."""
    n = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce: subtract multiples of the monic modulus from the top down
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(n):
                out[k - n + i] = (out[k - n + i] - c * modulus[i]) % p
    return out[:n] if len(out) >= n else out + [0] * (n - len(out))


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _is_irreducible(coeffs, p):
    """Exhaustive irreducibility check for monic coeffs of degree <= 4 over F_p.

    Degree 2 and 3 polynomials are irreducible iff they have no root; degree 4
    additionally requires excluding products of two irreducible quadratics,
    done by trial division against every monic quadratic.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if any(_poly_eval(coeffs, x, p) == 0 for x in range(p)):
        return False
    if deg <= 3:
        return True
    # degree 4, no linear factors: rule out quadratic * quadratic
    for b in range(p):
        for c in range(p):
            # divide coeffs by X^2 + b X + c and check the remainder
            q3 = coeffs[4]
            q2 = (coeffs[3] - b * q3) % p
            q1 = (coeffs[2] - b * q2 - c * q3) % p
            r1 = (coeffs[1] - b * q1 - c * q2) % p
            r0 = (coeffs[0] - c * q1) % p
            if r0 == 0 and r1 == 0:
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Candidates are scanned in ascending order of their integer encoding
    p^n + sum(c_i p^i), which orders coefficient vectors lexicographically
    from the highest-degree coefficient down.
    """
    if n == 1:
        return (0, 1)  # X itself: the prime field needs no real modulus
    for enc in range(p ** n, 2 * p ** n):
        coeffs = []
        e = enc
        for _ in range(n + 1):
            coeffs.append(e % p)
            e //= p
        if coeffs[0] == 0:
            continue  # divisible by X
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found (unreachable)")


class FieldContext:
    """Arithmetic context for F_q with dense tables for the hot paths.

    Attributes:
        p, n, q: characteristic, extension degree, order q = p^n.
        modulus: monic modulus coefficients (c_0, ..., c_n), c_n = 1.
        trace_table: int64 array of length q, Tr(x) for every encoding.
        char_table: the p complex p-th roots of unity, indexed by Tr(x).
    """

    def __init__(self, p: int, n: int = 1):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"p = {p} is not prime")
        if p == 2:
            raise EvenCharacteristicError("p must be odd (p >= 3); got p = 2")
        if not 1 <= n <= MAX_DEGREE:
            raise DegreeTooLargeError(f"extension degree n = {n} outside 1..{MAX_DEGREE}")
        q = p ** n
        if q > MAX_ORDER:
            raise OrderTooLargeError(f"q = p^n = {q} exceeds 2^20 = {MAX_ORDER}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = smallest_irreducible(p, n)

        self._exp = None
        self._log = None
        self.generator = None
        if n >= 2:
            self._reduction = self._build_reduction_matrix()
            if q <= LOG_TABLE_MAX:
                self._build_log_tables()
        else:
            self._reduction = None

        self._trace_basis = self._build_trace_basis()
        if all(t == 0 for t in self._trace_basis):
            raise AssertionError("trace is identically zero (modulus not separable?)")
        self.trace_table = self._build_trace_table()
        self.char_table = np.exp(2j * np.pi * np.arange(p) / p)

    # -- construction helpers -------------------------------------------

    def _build_reduction_matrix(self):
        """Row k: coefficient vector of X^k reduced mod the modulus, k < 2n-1."""
        p, n = self.p, self.n
        rows = []
        cur = [1] + [0] * (n - 1)
        for _ in range(2 * n - 1):
            rows.append(list(cur))
            # multiply by X and reduce
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(n):
                    cur[i] = (cur[i] - top * self.modulus[i]) % p
        return np.array(rows, dtype=np.int64)

    def _mul_poly(self, a: int, b: int) -> int:
        da = self.digits(a)
        db = self.digits(b)
        res = _poly_mul_mod(list(da), list(db), list(self.modulus), self.p)
        return self.encode(res)

    def _pow_poly(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    def _build_log_tables(self):
        q = self.q
        factors = set()
        m = q - 1
        f = 2
        while f * f <= m:
            while m % f == 0:
                factors.add(f)
                m //= f
            f += 1
        if m > 1:
            factors.add(m)
        g = None
        for cand in range(2, q):
            if all(self._pow_poly(cand, (q - 1) // f) != 1 for f in factors):
                g = cand
                break
        if g is None:
            raise InvariantError("F_q^* is cyclic; a generator must exist")
        self.generator = g
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, g)
        if acc != 1:
            raise InvariantError("generator order mismatch")
        exp[q - 1:] = exp[: q - 1]
        self._exp = exp
        self._log = log

    def _build_trace_basis(self):
        """Tr(X^i) for the monomial basis, via repeated Frobenius."""
        out = []
        for i in range(self.n):
            b = self.encode([0] * i + [1])
            acc = b
            cur = b
            for _ in range(self.n - 1):
                cur = self._pow_poly(cur, self.p)
                acc = self.add(acc, cur)
            if acc >= self.p:
                raise InvariantError("trace value escaped the prime subfield")
            out.append(acc)
        return tuple(out)

    def _build_trace_table(self):
        idx = np.arange(self.q, dtype=np.int64)
        if self.n == 1:
            return idx
        tr = np.zeros(self.q, dtype=np.int64)
        for i, t in enumerate(self._trace_basis):
            if t:
                tr += ((idx // self.p ** i) % self.p) * t
        return tr % self.p

    # -- encodings --------------------------------------------------------

    def digits(self, a: int) -> tuple:
        """Base-p coefficient vector (c_0, ..., c_{n-1}) of an encoding."""
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs) -> int:
        acc = 0
        for c in reversed(list(coeffs)):
            acc = acc * self.p + (c % self.p)
        return acc

    def elements(self) -> range:
        return range(self.q)

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        return self.encode((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a - b) % self.p
        return self.encode((x - y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.digits(a))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise InverseOfZeroError("0 has no multiplicative inverse")
        if self.n == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])
        return self._pow_poly(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.n == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return int(self._exp[(self._log[a] * e) % (self.q - 1)])
        return self._pow_poly(a, e)

    def trace(self, a: int) -> int:
        return int(self.trace_table[a])

    def char(self, a: int) -> complex:
        """Canonical additive character chi(a) = exp(2*pi*i*Tr(a)/p)."""
        return complex(self.char_table[self.trace_table[a]])

    # -- vectorized arithmetic on int64 arrays of encodings ------------------

    def add_vec(self, A, B):
        if self.n == 1:
            return (A + B) % self.p
        out = np.zeros_like(A + B)  # broadcasts shapes
        pk = 1
        for _ in range(self.n):
            out += (((A // pk) + (B // pk)) % self.p) * pk
            pk *= self.p
        return out

    def sub_vec(self, A, B):
        if self.n == 1:
            return (A - B) % self.p
        out = np.zeros_like(A - B)
        pk = 1
        for _ in range(self.n):
            out += (((A // pk) - (B // pk)) % self.p) * pk
            pk *= self.p
        return out

    def neg_vec(self, A):
        return self.sub_vec(np.zeros_like(A), A)

    def mul_vec(self, A, B):
        if self.n == 1:
            return (A * B) % self.p
        if self._exp is not None:
            A, B = np.broadcast_arrays(np.asarray(A), np.asarray(B))
            out = np.zeros(A.shape, dtype=np.int64)
            mask = (A != 0) & (B != 0)
            out[mask] = self._exp[self._log[A[mask]] + self._log[B[mask]]]
            return out
        return self._mul_vec_poly(A, B)

    def _mul_vec_poly(self, A, B):
        """Digit-convolution product for large extension fields (q > 2^16)."""
        A, B = np.broadcast_arrays(np.asarray(A), np.asarray(B))
        n, p = self.n, self.p
        da = [(A // p ** i) % p for i in range(n)]
        db = [(B // p ** i) % p for i in range(n)]
        conv = [np.zeros(A.shape, dtype=np.int64) for _ in range(2 * n - 1)]
        for i in range(n):
            for j in range(n):
                conv[i + j] += da[i] * db[j]
        out_digits = [np.zeros(A.shape, dtype=np.int64) for _ in range(n)]
        for k in range(2 * n - 1):
            ck = conv[k] % p
            for i in range(n):
                r = int(self._reduction[k, i])
                if r:
                    out_digits[i] += ck * r
        out = np.zeros(A.shape, dtype=np.int64)
        pk = 1
        for i in range(n):
            out += (out_digits[i] % p) * pk
            pk *= p
        return out

    def pow_table(self, e: int):
        """Length-q table v -> v^e, used for vectorized monomial evaluation."""
        idx = np.arange(self.q, dtype=np.int64)
        if self.n == 1:
            if e == 0:
                return np.ones(self.q, dtype=np.int64)
            # pow() per entry keeps exponents of any size exact
            return np.array([pow(int(v), e, self.p) for v in idx], dtype=np.int64)
        return np.array([self.pow(int(v), e) for v in idx], dtype=np.int64)

    def char_vec(self, A):
        """chi evaluated on an int64 array of encodings."""
        return self.char_table[self.trace_table[A]]

    def __repr__(self):
        if self.n == 1:
            return f"FieldContext(F_{self.p})"
        return f"FieldContext(F_{self.q} = F_{self.p}^{self.n}, modulus={self.modulus})"
