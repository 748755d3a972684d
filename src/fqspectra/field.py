"""Exact arithmetic in F_q, q = p^n with p an odd prime, plus the absolute
trace and the canonical additive character chi(x) = exp(2*pi*i*Tr(x)/p).

Elements are encoded as integers 0..q-1 read as base-p coefficient vectors:
the integer sum(c_i * p^i) stands for the polynomial sum(c_i * X^i) modulo a
fixed monic irreducible polynomial of degree n.  The modulus is chosen
deterministically (lexicographically smallest irreducible candidate), so the
encoding is reproducible bit-for-bit across runs and machines.

Prime fields (n = 1) multiply integers modulo p.  Every extension field
(n >= 2, up to MAX_ORDER) multiplies through discrete log/antilog tables over
a fixed generator of F_q^*.  Those tables and the trace are built from the
matrices of multiplication on digit rows, see `FieldContext`.

A FieldContext is immutable after construction and every operation is pure,
so contexts can be shared freely between threads.
"""

import operator

import numpy as np

from .errors import (
    DegreeTooLargeError,
    EvenCharacteristicError,
    InvariantError,
    NotPrimeError,
    OrderTooLargeError,
)

MAX_DEGREE = 4
MAX_ORDER = 1 << 20


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
    raise InvariantError("no irreducible polynomial found (unreachable)")


class FieldContext:
    """Arithmetic context for F_q with dense tables for the hot paths.

    An extension field is built from one object: the companion matrix C of
    the modulus, which multiplies a digit row by X, and its powers C^0, ..,
    C^(n-1).  Row i of C^j holds the digits of X^(i+j), so multiplication by
    c = sum_j c_j X^j is the matrix M_c = sum_j c_j C^j mod p acting on digit
    rows: the digits of a*c are digits(a) @ M_c mod p.  Products of elements
    are products of their matrices, and Tr(c) is the trace of M_c.  The
    generator search, the exp/log tables and the trace table all read these
    matrices.

    Attributes:
        p, n, q: characteristic, extension degree, order q = p^n.
        modulus: monic modulus coefficients (c_0, ..., c_n), c_n = 1.
        generator: for n >= 2, the smallest encoding that generates F_q^*,
            whose powers index the log/antilog tables; None for n = 1.
        trace_table: int64 array of length q, Tr(x) for every encoding.
        char_table: the p complex p-th roots of unity, indexed by Tr(x).
    """

    def __init__(self, p: int, n: int = 1):
        p, n = operator.index(p), operator.index(n)
        if not is_prime(p):
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

        if n == 1:
            self.generator = self._exp = self._log = None
            self.trace_table = np.arange(q, dtype=np.int64)
        else:
            self._build_tables()
        self.char_table = np.exp(2j * np.pi * np.arange(p) / p)

    # -- construction helpers -------------------------------------------

    def _smallest_generator(self, powers) -> int:
        """The smallest encoding g that generates F_q^*: the first candidate
        with g^((q-1)/f) != 1 for every prime f dividing q - 1.

        The encodings below p are F_p^*, whose orders divide p - 1 < q - 1,
        so the candidates start at p.  They are tested in batches, 16 first
        and each next batch four times larger up to 4096, by
        square-and-multiply on the stack of their matrices M_c, one row per
        (candidate, exponent): the base is squared as a matrix, and the power
        is kept as its row 0, the digits of c^e.
        """
        q, p, n = self.q, self.p, self.n
        exponents, m, f = [], q - 1, 2
        while f * f <= m:
            if m % f == 0:
                exponents.append((q - 1) // f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            exponents.append((q - 1) // m)
        one = np.eye(1, n, dtype=np.int64)
        steps = max(exponents).bit_length()
        start, batch = p, 16
        while start < q:
            cand = np.arange(start, min(start + batch, q), dtype=np.int64)
            base = np.tensordot(cand[:, None] // p ** np.arange(n) % p, powers, 1) % p
            base = np.tile(base, (len(exponents), 1, 1))
            e = np.repeat(np.array(exponents, dtype=np.int64), len(cand))
            takes = (e[:, None, None] >> np.arange(steps)[:, None, None, None]) & 1 == 1
            power = np.where(takes[0], base[:, :1], one)
            for bit in range(1, steps):
                base = base @ base % p
                power = np.where(takes[bit], power @ base % p, power)
            is_one = (power[:, 0] == one).all(axis=1)
            generates = ~is_one.reshape(len(exponents), len(cand)).any(axis=0)
            if generates.any():
                return int(cand[np.argmax(generates)])
            start, batch = start + batch, min(4 * batch, 1 << 12)
        raise InvariantError("F_q^* is cyclic; a generator must exist")

    def _build_tables(self):
        """The generator, the exp/log tables and the trace table, from the
        powers of the companion matrix.

        The digit rows of g^0, .., g^(q-2) are filled by doubling: with M
        the matrix of g^k, rows[k:2k] = rows[:k] @ M mod p, then M becomes
        M @ M.  Then exp[i] encodes rows[i], and Tr(g^i) = rows[i] .
        (Tr C^j)_j mod p.
        """
        p, n, q = self.p, self.n, self.q
        companion = np.eye(n, k=1, dtype=np.int64)
        companion[-1] = np.negative(self.modulus[:n]) % p
        powers = [np.eye(n, dtype=np.int64)]
        for _ in range(n - 1):
            powers.append(powers[-1] @ companion % p)
        powers = np.array(powers)
        self.generator = g = self._smallest_generator(powers)
        place = p ** np.arange(n, dtype=np.int64)
        rows = np.zeros((q - 1, n), dtype=np.int64)
        rows[0, 0] = 1
        M = np.tensordot(g // place % p, powers, 1) % p
        k = 1
        while k < q - 1:
            m = min(k, q - 1 - k)
            np.matmul(rows[:m], M, out=rows[k:k + m])
            rows[k:k + m] %= p
            k, M = 2 * k, M @ M % p
        exp = np.empty(2 * (q - 1), dtype=np.int64)
        np.matmul(rows, place, out=exp[:q - 1])
        exp[q - 1:] = exp[:q - 1]
        trace = rows @ np.trace(powers, axis1=1, axis2=2)
        trace %= p
        del rows  # the largest table here; freed before the log table is built
        log = np.full(q, -1, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1, dtype=np.int64)
        if np.any(log[1:] < 0):
            raise InvariantError("powers of the generator miss a nonzero element")
        self._exp = exp
        self._log = log
        self.trace_table = np.zeros(q, dtype=np.int64)
        self.trace_table[exp[:q - 1]] = trace

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

    def element(self, a: int) -> int:
        """The encoding of the field element an integer argument names.

        Over a prime field every integer names its residue, a mod p.  Over an
        extension field an integer is an encoding, and only 0..q-1 are
        encodings: anything else raises ValueError rather than being read
        as some other element.
        """
        a = int(a)
        if self.n == 1:
            return a % self.p
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of F_{self.q}: "
                             f"its elements are encoded 0..{self.q - 1}")
        return a

    # -- scalar arithmetic --------------------------------------------------

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.digits(a))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    # -- vectorized arithmetic on int64 arrays of encodings ------------------

    def add_vec(self, A, B):
        if self.n == 1:
            return (A + B) % self.p
        out = np.zeros(np.broadcast_shapes(np.shape(A), np.shape(B)), dtype=np.int64)
        pk = 1
        for _ in range(self.n):
            out += (((A // pk) + (B // pk)) % self.p) * pk
            pk *= self.p
        return out

    def mul_vec(self, A, B):
        if self.n == 1:
            return (A * B) % self.p
        A, B = np.broadcast_arrays(np.asarray(A), np.asarray(B))
        out = np.zeros(A.shape, dtype=np.int64)
        mask = (A != 0) & (B != 0)
        out[mask] = self._exp[self._log[A[mask]] + self._log[B[mask]]]
        return out

    def pow_table(self, e: int):
        """Length-q table v -> v^e (with 0^0 = 1) for e >= 0, by
        square-and-multiply over mul_vec; used for monomial evaluation."""
        if e < 0:
            raise ValueError(f"exponent e = {e} must be >= 0")
        out = np.ones(self.q, dtype=np.int64)
        base = np.arange(self.q, dtype=np.int64)
        while e:
            if e & 1:
                out = self.mul_vec(out, base)
            e >>= 1
            if e:
                base = self.mul_vec(base, base)
        return out

    def char_vec(self, A):
        """chi evaluated on an int64 array of encodings."""
        return self.char_table[self.trace_table[A]]

    def __repr__(self):
        if self.n == 1:
            return f"FieldContext(F_{self.p})"
        return f"FieldContext(F_{self.q} = F_{self.p}^{self.n}, modulus={self.modulus})"
