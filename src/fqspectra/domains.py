"""Index bookkeeping for F_q^d and the shared character-sum engine.

Points (x_1, ..., x_d) are flattened to the canonical index
sum_j x_j * q^(d-1-j), so ascending index order is lexicographic order on
coordinate tuples.  Because element encodings are base-p digit vectors, the
flat index is simultaneously the base-p digit string of the point over
n*d digits.  So F_q^d is the group (Z_p)^(n*d) on tables of shape
(p,) * (n*d): subtraction is digit-wise (`PointDomain.index_sub`), and the
full character table and every fold are (Z_p)^(n*d) Fourier transforms:
direct DFTs for p <= _MATMUL_P_MAX and numpy.fft above it.  The character
table takes one length-p pass per axis; the fold kernel is stated in
`energy.fold_counts`.
"""

import numpy as np

from .errors import SearchSpaceTooLargeError
from .field import FieldContext

# Cap on q^d for any operation that materializes a full table over F_q^d.
TABLE_MAX = 10 ** 7
# Largest p whose (Z_p)^(n*d) transforms, character sums and folds alike,
# run as direct DFTs (a fold's passes: `energy.fold_counts`); above it the
# O(p) work per cell and the p x p DFT matrix lose to numpy.fft (measured
# crossover).
_MATMUL_P_MAX = 373

# The one overflow policy.  An exact integer accumulator runs in int64 only
# when an a priori bound on everything it can hold (partial sums included;
# all of them are sums of nonnegative terms or differences of two such sums)
# is below _INT64_SAFE, and in Python ints (object dtype) otherwise.  A count
# table is a plain 1-D array of either dtype, so a single count is read out
# as a Python int (`tolist()` or `int()`) before any arithmetic with Python
# ints: an int64 count times q^d can pass 2^63.  It covers:
#   * fold count tables, whose dtype `energy._table_dtype` picks from the
#     total mass: |E|^j, or |a| * |b| for the sum of limb products in
#     `energy._convolve`, none of whose partial sums exceeds the total;
#   * the int64 groups of `energy._convolve`, each the sum of the limb
#     products that share one shift: every product is below 2^53 by its
#     certificate, and at most 63 limbs a side give at most 63 ordered
#     products per shift (a square's cross product counts as two), so a
#     group stays below 63 * 2^53 < 2^59 whatever the mass;
#   * `energy._exact_dot`, from a caller's bound on the dot product;
#   * the `np.add.at` binning in `energy.nu_k`, which adds in the fold
#     table's own dtype, and the `energy.nu_P_k` shift sum of that binned
#     table, of mass |X| * |E|^k;
#   * the growth-audit correlation in `energy.energy_growth_audit`, of mass
#     |V| * |E|^(k/2), and its dot product with r_{k/2-1}, both built only
#     when the edge count at the origin (`energy._fold_at_zero`, a float
#     below 2^53 rounded to a Python int) refuses;
#   * the mixing weights in `spectra.mixing_audit`: e, |B|, |C| and sum m^2
#     per pair, segment sums over the ragged entries, under (n + degree) *
#     mass^2 for the block's largest multiset mass; the product of the sums
#     of m^2, under the product of their maxima; and the merged
#     multiplicities of `spectra.merge_multisets`, under the largest draw
#     times the largest support.
# Each module imports the name, so a test can force the Python-int path of
# one module by patching it there.
_INT64_SAFE = 1 << 62
# Integers below this are exact in float64: a rounded transform value can be one,
# and one float operation on such integers is as correctly rounded as the
# same operation on Python ints.
_FLOAT_EXACT = 1 << 53


def require_table_budget(dom: "PointDomain", use: str = "spectrum", name: str = "q^d"):
    """Raise SearchSpaceTooLargeError when a table over dom, the eigenvalues
    of a spectrum or a fold of depth 2 or more, would have more than
    TABLE_MAX cells; callers check before they build any table over dom."""
    if dom.size > TABLE_MAX:
        raise SearchSpaceTooLargeError(
            f"{name} = {dom.size} exceeds the {use} budget {TABLE_MAX}")


def flat_indices(points, q: int, d: int) -> np.ndarray:
    """Flat int64 indices of a sequence of coordinate tuples over F_q^d.

    Raises ValueError for a point of the wrong arity or a coordinate outside
    [0, q).
    """
    rows = [tuple(pt) for pt in points]
    if any(len(pt) != d for pt in rows):
        raise ValueError(f"a point does not have d = {d} coordinates")
    coords = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    if coords.size and (coords.min() < 0 or coords.max() >= q):
        raise ValueError(f"a coordinate lies outside 0..{q - 1}")
    return coords @ (q ** np.arange(d - 1, -1, -1, dtype=np.int64))


class PointDomain:
    """The additive group F_q^d with canonical flat indexing.

    Immutable and stateless beyond its shape, so instances are safe to share
    across workers.
    """

    def __init__(self, ctx: FieldContext, d: int):
        if d < 1:
            raise ValueError(f"dimension d = {d} must be >= 1")
        self.ctx = ctx
        self.d = d
        self.size = ctx.q ** d
        self.nd = ctx.n * d
        self.shape = (ctx.p,) * self.nd

    # -- point <-> index ----------------------------------------------------

    def index_of(self, point) -> int:
        if len(point) != self.d:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.d}")
        acc = 0
        for x in point:
            acc = acc * self.ctx.q + int(x)
        return acc

    def as_indices(self, E) -> np.ndarray:
        """E as flat int64 indices, in E's order.

        A 1-D integer array already is one; anything else is read as a
        sequence of coordinate tuples.  Raises ValueError for a point of the
        wrong arity, a coordinate outside [0, q) or an index outside [0, q^d).
        """
        if isinstance(E, np.ndarray) and E.ndim == 1 and E.dtype.kind in "iu":
            idx = E.astype(np.int64, copy=False)
            if idx.size and (idx.min() < 0 or idx.max() >= self.size):
                raise ValueError(f"flat point index outside 0..{self.size - 1}")
            return idx
        return flat_indices(E, self.ctx.q, self.d)

    def as_values(self, values) -> np.ndarray:
        """A value table (one field element per point, in index order, such
        as `QuadraticForm.value_table(self)`) as an int64 array.

        Raises ValueError unless it holds exactly one value per point.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.size,):
            raise ValueError(f"value table has shape {values.shape}, "
                             f"expected ({self.size},): one value per point of F_q^d")
        return values

    # -- group arithmetic on flat indices ------------------------------------

    def digits(self, A) -> tuple:
        """The n*d base-p digits of A (int or array), lowest first, as small ints."""
        small = np.min_scalar_type(self.ctx.p - 1)
        return tuple(d.astype(small) for d in np.unravel_index(A, self.shape)[::-1])

    def index_sub(self, A, B, gathered=None):
        """Digit-wise base-p subtraction, A - B in the group, in one borrow
        pass: with a_k, b_k the n*d base-p digits,

            sum_k ((a_k - b_k) mod p) p^k = A - B + sum_k p^(k+1) [a_k < b_k],

        since a digit that borrows gains p.  A and B may be Python ints or
        integer arrays.  gathered, when given, holds the digits of A and of B
        as `digits` gives them: a caller that subtracts many pairs of a few
        entries takes each entry's digits once and gathers them with A and B."""
        a, b = gathered or (self.digits(A), self.digits(B))
        out, pk = A - B, 1
        for a_k, b_k in zip(a, b):
            pk *= self.ctx.p
            out = out + (a_k < b_k) * pk
        return out

    def index_neg(self, A):
        return self.index_sub(0, A)

    def translate_table(self, table: np.ndarray, idx: int) -> np.ndarray:
        """New table t'(z) = t(z - e) for the group element with flat index e:
        a roll of each axis of self.shape by e's base-p digit on it."""
        shifted = np.roll(table.reshape(self.shape), np.unravel_index(idx, self.shape),
                          axis=tuple(range(self.nd)))
        return shifted.reshape(table.shape)


def _trace_form(ctx: FieldContext) -> np.ndarray:
    """Gram matrix T[i][j] = Tr(X^i * X^j) of the trace pairing on F_q/F_p."""
    basis = ctx.p ** np.arange(ctx.n, dtype=np.int64)
    return ctx.trace_table[ctx.mul_vec(basis[:, None], basis[None, :])]


def character_sum_table(dom: PointDomain, points) -> np.ndarray:
    """lam[m] = sum over s in points of chi(m . s), for every m in F_q^d.

    points is an index array or a sequence of coordinate tuples (see
    `PointDomain.as_indices`).  The table is the (Z_p)^(n*d) Fourier
    transform of the set's indicator, one product with the length-p DFT
    matrix per axis (O(q^d * n * d * p) for any set), or numpy.fft for p
    above _MATMUL_P_MAX, reindexed through the trace pairing.  The test suite
    checks it against the direct sum over the set's points.
    """
    idx = dom.as_indices(points)
    ctx = dom.ctx
    p, n, d = ctx.p, ctx.n, dom.d
    f = np.bincount(idx, minlength=dom.size).astype(np.complex128)
    F = f.reshape(dom.shape)
    if p > _MATMUL_P_MAX:
        # chi has the sign opposite to numpy's, and f is real.
        F = np.fft.fftn(F).conj()
    else:
        W = np.exp(2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
        for axis in range(dom.nd):
            F = np.moveaxis(np.tensordot(W, F, axes=(1, axis)), 0, axis)
    F = F.reshape(dom.size)
    if n == 1:
        return F
    # Reindex: chi(m . s) pairs digit blocks through the trace Gram matrix.
    # It acts on each coordinate alone: lin[u] encodes digits(u) . T mod p.
    digits = np.arange(ctx.q, dtype=np.int64)[:, None] // p ** np.arange(n) % p
    lin = (digits @ _trace_form(ctx)) % p @ p ** np.arange(n)
    flat = sum((lin * ctx.q ** (d - 1 - j)).reshape((-1,) + (1,) * (d - 1 - j))
               for j in range(d))
    return F[flat.reshape(dom.size)]
