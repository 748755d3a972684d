"""Exact fold counts, k-energies, the distance-count tables nu_k and nu_{P,k},
generalized distance sets, and second-moment/sumset quantities.

Everything on the counting side is exact integer arithmetic: tables switch to
Python-int (object dtype) storage automatically once |E|^k could overflow
int64, so inequality audits always compare an exact integer against a
floating bound.  Every fold is a product of Fourier transforms under the
rounding certificate of `fold_counts`: the indicator's transform, or else
limb products of two shallower folds; no count comes from an uncertified one.
The transforms are direct DFTs over (Z_p)^(nd), one BLAS matmul per axis
(`_rfft`, `_irfft`), and numpy.fft only for p above the measured crossover
`_MATMUL_P_MAX`, in the same half-spectrum layout.

A `FoldLadder` holds one subset's fold tables r_1, r_2, ... and builds each at
most once.  It also holds the real-input transform of its indicator, taken
once, so that every certified transform fold of the subset, of any depth, is
one inverse transform.  A ladder is the one form in which a subset reaches the
counts and audits here, the growth audit's variety included.  `nu_k` bins a
fold by any value table, and the generalized distance set (`delta_set`) and
nu_{P,k} (`nu_P_k`), whose support is X + Delta, are both read off that one
binned table.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import _FLOAT_EXACT, _INT64_SAFE, PointDomain
from .errors import (
    EmptyXError,
    InconsistentTotalError,
    InvariantError,
    OddKError,
)
from .field import FieldContext
from .spectra import AUDIT_RTOL, Spectrum, require_table_budget

# Constant C of the per-line error C * p^(3/2) * u of one length-p DFT pass,
# which `fold_counts` derives for the direct sum that `_rfft` and `_irfft` run.
_DFT_ERROR_CONST = 8.0
# Largest p whose fold transforms run as direct DFTs, one BLAS matmul per
# axis; above it the O(p) work per cell loses to numpy.fft (measured crossover).
_MATMUL_P_MAX = 373


def _exact_total(values: np.ndarray) -> int:
    if values.dtype != np.int64:
        return int(values.sum(dtype=object))
    # Each int64 entry is hi * 2^31 + lo; neither partial sum can overflow for
    # fewer than 2^31 entries.
    return (int((values >> 31).sum()) << 31) + int((values & 0x7FFFFFFF).sum())


def _exact_dot(a: np.ndarray, b: np.ndarray, worst: int) -> int:
    """sum_z a(z) b(z) for nonnegative count tables, exact.

    `worst` bounds the result: below _INT64_SAFE an int64 dot product cannot
    overflow, otherwise the products are taken in Python ints.
    """
    if worst < _INT64_SAFE:
        return int(np.dot(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)))
    return int(np.dot(a.astype(object), b.astype(object)))


@dataclass(frozen=True)
class CountTable:
    """Exact nonnegative-integer counts, over F_q^d or over F_q."""

    q: int
    values: np.ndarray

    def total(self) -> int:
        return _exact_total(self.values)

    def __getitem__(self, i) -> int:
        return int(self.values[i])

    def to_rows(self):
        for i, v in enumerate(self.values):
            yield i, int(v)


def _table_dtype(mass: int):
    """int64 for a count table of this total mass, or object when it could overflow."""
    return object if mass >= _INT64_SAFE else np.int64


def _fold_error_bound(dom: PointDomain, sizes, norms) -> float:
    """A priori bound on max |computed - exact| of the transform fold whose
    factors have l1 norms `sizes` and l2 norms `norms`; see `fold_counts`."""
    u = 2.0 ** -53
    alpha = _DFT_ERROR_CONST * dom.ctx.p ** 1.5 * u
    per_pass = math.expm1(dom.nd * math.log1p(alpha))
    # Half spectra: an error extends to the full grid with at most sqrt(2) times its norm.
    eps = math.sqrt(2) * per_pass
    eps_inv = math.sqrt(2) * ((1 + per_pass) * (1 + u) ** 2 - 1)
    eta = eps * math.sqrt(dom.size)
    m = len(sizes)
    theta = math.expm1((m - 1) * math.log1p(math.sqrt(2) * 2 * u / (1 - 2 * u)))
    terms = [norms[i] * math.prod(sizes[:i] + sizes[i + 1:]) for i in range(m)]
    spread = (1 + eta) ** (m - 1) * (eps * sum(terms) + theta * (1 + eps) * min(terms))
    return spread * (1 + eps_inv) + eps_inv * min(terms)


def _norms(table: np.ndarray) -> tuple:
    """(l1, l2) of a nonnegative count table: l1 exact, l2 the root of the
    exact sum of squares, which is at most l1 times the largest entry."""
    s = _exact_total(table)
    return s, math.sqrt(_exact_dot(table, table, s * int(table.max(initial=0))))


def _certificate(dom: PointDomain, factors):
    """(mass, B) of the transform fold of `factors`, ((l1, l2), power) pairs,
    or None when the mass reaches 2^53 or B is not below 1/2 (see
    `fold_counts`)."""
    sizes = [s for (s, _), power in factors for _ in range(power)]
    mass = math.prod(sizes)
    if mass >= _FLOAT_EXACT:
        return None
    norms = [l for (_, l), power in factors for _ in range(power)]
    bound = _fold_error_bound(dom, sizes, norms)
    return (mass, bound) if bound < 0.5 else None


@functools.lru_cache(maxsize=8)
def _dft_matrices(p: int) -> tuple:
    """(W, W*, first, last) of the direct length-p DFT (see `fold_counts`).

    W[j, l] = exp(-2 pi i jl / p), from cos and sin of the reduced angle
    pi g / p, g = 2 jl mod 2p taken in (-p, p], so |angle| <= pi.  first is
    the top h = p // 2 + 1 rows of W, transposed; last is the first h
    columns of W weighted 1, 2, ..., 2.  Both are (p, 2h) float64 arrays
    with real and imaginary parts interleaved, so a float64 matmul against
    them is a complex one."""
    g = 2 * (np.outer(np.arange(p), np.arange(p)) % p)
    g[g > p] -= 2 * p
    angle = np.pi * g / p
    w = np.empty((p, p), dtype=np.complex128)
    w.real = np.cos(angle)
    w.imag = -np.sin(angle)
    h = p // 2 + 1
    weights = np.full(h, 2.0)
    weights[0] = 1.0
    out = (w, w.conj(), np.ascontiguousarray(w[:h].T).view(np.float64),
           np.ascontiguousarray(w[:, :h] * weights).view(np.float64))
    for m in out:
        m.setflags(write=False)
    return out


def _rfft(dom: PointDomain, table: np.ndarray) -> np.ndarray:
    """The half spectrum of a real table over (Z_p)^(nd), halved along axis
    0: shape (p // 2 + 1, p, ..., p) (see `fold_counts`)."""
    p = dom.ctx.p
    if p > _MATMUL_P_MAX:
        return np.fft.rfftn(table.reshape(dom.shape), axes=(*range(1, dom.nd), 0))
    w, _, first, _ = _dft_matrices(p)
    # Each pass transforms the leading axis, and the transposed operand
    # leaves it trailing, so after nd passes the axes are back in order.
    y = (np.asarray(table, dtype=np.float64).reshape(p, -1).T @ first).view(np.complex128)
    for _ in range(dom.nd - 1):
        y = y.reshape(p, -1).T @ w
    return y.reshape((p // 2 + 1,) + dom.shape[1:])


def _irfft(dom: PointDomain, hat: np.ndarray) -> np.ndarray:
    """The flat real table whose `_rfft` is the half spectrum hat."""
    p = dom.ctx.p
    if p > _MATMUL_P_MAX:
        return np.fft.irfftn(hat, s=dom.shape, axes=(*range(1, dom.nd), 0)).reshape(dom.size)
    _, w_conj, _, last = _dft_matrices(p)
    # Each pass transforms the trailing axis and leaves it leading; the
    # half axis, trailing after nd - 1 passes, goes last and gives reals.
    z = hat
    for _ in range(dom.nd - 1):
        z = w_conj @ z.reshape(-1, p).T
    real = last @ z.reshape(-1, p // 2 + 1).view(np.float64).T
    real *= 1.0 / dom.size
    return real.reshape(dom.size)


def _transform_fold(dom: PointDomain, factors):
    """The convolution of nonnegative count tables by a Fourier transform over
    (Z_p)^(nd), as int64 counts, or None when the certificate described in
    `fold_counts` fails.  `factors` is a list of (norms, hat, power): a
    factor's `_norms` and its half spectrum (`_rfft`)."""
    cert = _certificate(dom, [(norms, power) for norms, _, power in factors])
    if cert is None:
        return None
    mass, bound = cert
    prod = None
    for _, hat, power in factors:
        for _ in range(power):
            prod = hat if prod is None else prod * hat
    real = _irfft(dom, prod)
    r = np.rint(real)
    if np.max(np.abs(real - r), initial=0.0) > bound:
        return None
    r = r.astype(np.int64)
    if np.min(r, initial=0) < 0 or _exact_total(r) != mass:
        return None
    return r


def _limbs(table: np.ndarray, w: int) -> list:
    """(shift, int64 limb) for each nonzero base-2^w limb of a nonnegative
    table: table = sum of limb * 2^shift."""
    limbs = ((shift, ((table >> shift) & ((1 << w) - 1)).astype(np.int64))
             for shift in range(0, int(table.max(initial=0)).bit_length(), w))
    return [(shift, limb) for shift, limb in limbs if limb.any()]


def _convolve(dom: PointDomain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (*) b for nonnegative integer tables, exact, from certified limb
    products (see `fold_counts`); pass the same array twice for a square."""
    mass = _exact_total(a) * _exact_total(b)
    top = max(int(a.max(initial=0)), int(b.max(initial=0))).bit_length()
    for w in range(max(1, min(top, 63)), 0, -1):
        limbs_a = [(shift, limb, _norms(limb)) for shift, limb in _limbs(a, w)]
        limbs_b = limbs_a if b is a else [(shift, limb, _norms(limb))
                                          for shift, limb in _limbs(b, w)]
        # A square is symmetric in its limbs: each unordered pair once, doubled.
        pairs = [(x, y) for x in limbs_a for y in limbs_b if b is not a or x[0] <= y[0]]
        if any(_certificate(dom, [(x[2], 1), (y[2], 1)]) is None for x, y in pairs):
            continue
        hats_a = {shift: _rfft(dom, limb) for shift, limb, _ in limbs_a}
        hats_b = hats_a if b is a else {shift: _rfft(dom, limb) for shift, limb, _ in limbs_b}
        groups = {}
        for (sx, _, nx), (sy, _, ny) in pairs:
            square = b is a and sx == sy
            r = _transform_fold(dom, [(nx, hats_a[sx], 2)] if square
                                else [(nx, hats_a[sx], 1), (ny, hats_b[sy], 1)])
            if r is None:
                break
            if b is a and not square:
                r *= 2
            # Products that share a shift are summed in int64 (see _INT64_SAFE).
            shift = sx + sy
            groups[shift] = groups[shift] + r if shift in groups else r
        else:
            out = np.zeros(dom.size, dtype=_table_dtype(mass))
            for shift, group in groups.items():
                out += group.astype(out.dtype, copy=False) * (1 << shift)
            if _exact_total(out) != mass:
                raise InvariantError("fold mass conservation violated")
            return out
    raise InvariantError(f"no limb width certifies a fold of mass {mass}")


def fold_counts(dom: PointDomain, E, j: int) -> CountTable:
    """r_j(z) = number of ordered j-tuples from E summing to z, exact.

    E is a `FoldLadder` over dom, a sequence of points or a 1-D integer
    array of flat indices.  Depth 1 is the bincount of E, over any q^d.
    Depth j >= 2 needs q^d <= TABLE_MAX (SearchSpaceTooLargeError otherwise).
    It is the transform fold of the indicator when the table is int64 and
    that fold certifies, and otherwise r_a (*) r_b, a = ceil(j/2) and
    b = floor(j/2), by limb products, with r_a and r_b read from E's ladder
    (a new one when E is not a ladder), so that no depth is folded twice.

    Transform fold.  F_q^d is (Z_p)^(nd) on flat indices, so with N = q^d
    the convolution of count vectors f_1..f_m is the inverse transform of
    prod_i F_i, F_i the transform of f_i, rounded with rint.  Every f_i is
    real, so only half spectra are taken: `_rfft` keeps axis 0's frequencies
    0..floor(p/2) and all of the other axes', `_irfft` reads such an array
    as half of a Hermitian one, and r_j is _irfft(_rfft(1_E)^j), where E's
    ladder takes _rfft(1_E) once and holds it.  For p <= _MATMUL_P_MAX both
    run the direct DFT: nd passes, each one BLAS matmul of the p x p twiddle
    matrix W of `_dft_matrices` against the table read as (p, N / p), whose
    transposed operand leaves the transformed axis at the back.  The forward
    transform's first pass multiplies the real table by the real and
    imaginary parts of the top h = floor(p/2) + 1 rows of W; the inverse's
    last pass rebuilds the real table from the h bins of the half axis,
    weighted 1, 2, ..., 2, and one 1/N scaling follows.  Above the crossover
    both call numpy.fft with axis 0 halved, which gives the same layout.  Its
    certificate: the mass prod_i ||f_i||_1 < 2^53, so every count is exact
    in float64; the a priori bound B below on max |computed - exact| is
    < 1/2, so rint is exact, and the observed residual is at most B; the
    rounded table has that mass and no negative entry.

    Derivation of B, for s_i = ||f_i||_1 and l_i = ||f_i||_2 (the indicator
    fold has f_i = 1_E, s_i = |E|, l_i = sqrt|E|, m = j; a limb product has
    m = 2).  Let u = 2^-53 and gamma_n = n u / (1 - n u).

    0. One pass.  Each length-p DFT along one line, y_l = sum_j W[j, l] x_j,
       has relative 2-norm error at most a = C p^(3/2) u with C = 8.  W[j, l]
       is exp(-i theta), theta = pi g / p for the integer g = 2 jl mod 2p
       taken in (-p, p], so |theta| <= pi.  np.pi is within 0.36 u of pi,
       relative, and g is exact, so fl(fl(pi g) / p) is within
       2.36 u |theta| <= 7.42 u of theta; with cos and sin within 4 ulp, at
       most 4 u each on [-1, 1], every twiddle has |W~ - W| <= tau = 13.1 u.
       The real and imaginary parts of y_l are each a sum of at most 2p real
       products, in whatever order and with whatever fused multiply-adds BLAS
       takes, so Higham's inner-product bound (Accuracy and Stability of
       Numerical Algorithms, (3.5)), on both parts, gives |y~_l - y_l| <=
       (tau + sqrt(2) gamma_2p (1 + tau)) sum_j |x_j|.  As sum_j |x_j| <=
       sqrt(p) ||x||_2 and the exact pass has ||y||_2 = sqrt(p) ||x||_2, the
       pass has the relative error sqrt(p) (tau + sqrt(2) gamma_2p (1 + tau)),
       under a = sqrt(p) C p u for every p >= 3: at p = 3 the bracket is
       (13.1 + 8.5) u against C p u = 24 u, and it grows by about 2.83 u
       per unit of p, C p u by 8 u.  The forward transform's first pass (p
       products per part) does no worse; the inverse's last pass (2h <= p + 1
       products per output) is bounded the same way against the Hermitian
       extension of its line, whose l1 norm the weights 1, 2, ..., 2 count.
       Above _MATMUL_P_MAX the same a is assumed of numpy.fft's radix and
       Bluestein passes, which do better than the direct sum.

    The exact pass scales every line by sqrt(p), so nd passes give a complex
    transform the relative error e = (1 + a)^(nd) - 1, and its inverse with
    the 1/N scaling e' = (1 + e)(1 + u)^2 - 1.  The Hermitian extension of a
    half-spectrum array, its missing bins filled by conjugates of mirrored
    ones, has at most sqrt(2) times its 2-norm, as no bin appears in it more
    than twice; that holds whichever one axis is halved, here axis 0.  So,
    read on the full grid, `_rfft` has the relative error eps = sqrt(2) e,
    and `_irfft`, the real part of the inverse DFT (IDFT) of the extension,
    has eps' = sqrt(2) e' against the extension's norm.  Products act bin by
    bin and commute with the extension, so steps 1-3 run on the full grid.

    1. Forward: ||F~_i - F_i||_2 <= eps ||F_i||_2 = eps sqrt(N) l_i by
       Parseval, and |F_i| <= s_i pointwise, so |F~_i| <= (1 + eta) s_i with
       eta = eps sqrt(N).
    2. Product: the m - 1 complex products each add relative error at most
       mu = sqrt(2) gamma_2 (Higham, Lemma 3.5); theta = (1 + mu)^(m-1) - 1.
       Telescoping prod F~ - prod F and putting A_i = l_i prod_{l != i} s_l,
       ||G~ - G||_2 <= sqrt(N) (1 + eta)^(m-1) (eps sum_i A_i
       + theta (1 + eps) min_i A_i) =: sqrt(N) D.
    3. Inverse: ||IDFT x||_2 = ||x||_2 / sqrt(N) and, by Young, the exact
       fold has ||r||_2 <= min_i A_i, so ||r~ - r||_2 <= D + eps' (min_i A_i + D).

    Hence max |r~ - r| <= B = D (1 + eps') + eps' min_i A_i, which grows
    with eps and eps', so it is never below the bound of complex transforms
    (e and e' in their place).  For |E| = 345, j = 3 over F_31^3, B is
    about 6e-6.

    Limb products.  With base-2^w limbs a = sum_i 2^(w i) a_i and b likewise,
    a (*) b = sum_{i,l} 2^(w(i+l)) (a_i (*) b_l), each limb product a transform
    fold with its own certificate.  w is the widest width, at most 63 so that
    limbs are int64, at which all products certify; InvariantError if none
    does, or if their sum, in int64 or Python ints as `_table_dtype` picks
    from ||a||_1 ||b||_1 (no partial sum exceeds the total), lacks that mass.
    The products that share a shift w(i+l) are first summed in int64 (see
    `domains._INT64_SAFE`), so a product of L and L' limbs makes only
    L + L' - 1 additions into that table.  Cost: every product's a priori
    bound is checked before any transform, so a width that it refuses costs
    none.  At the width taken, each limb is transformed once: a square of L
    limbs takes L forward and L (L + 1) / 2 inverse transforms, a product of
    L and L' limbs L + L' forward and L L' inverse, each O(N p nd) as direct
    sums and O(N log N) above the crossover.  On the full F_101^3 sphere
    (|E| = 10,302), r_4 = r_2 (*) r_2 takes 5-bit limbs, 3 forward and 6
    inverse transforms, and r_5 = r_3 (*) r_2 takes 3-bit limbs, 7 of r_3
    and 5 of r_2, so 12 forward and 35 inverse transforms.
    """
    if j < 1:
        raise ValueError(f"fold depth j = {j} must be >= 1")
    ladder = E if isinstance(E, FoldLadder) else FoldLadder(dom, E)
    dtype = _table_dtype(len(ladder) ** j)
    indicator = np.bincount(ladder.indices, minlength=dom.size)
    if j == 1:
        return CountTable(q=dom.ctx.q, values=indicator.astype(dtype))
    require_table_budget(dom, "fold")
    r = (_transform_fold(dom, [(_norms(indicator), ladder.transform(), j)])
         if dtype is np.int64 else None)
    if r is None:
        a = ladder.fold((j + 1) // 2).values
        r = _convolve(dom, a, a if j % 2 == 0 else ladder.fold(j // 2).values)
    return CountTable(q=dom.ctx.q, values=r)


class FoldLadder:
    """The fold tables r_1, r_2, ... of one subset E of F_q^d.

    Holds E as flat indices and builds depth j on first use by one call to
    `fold_counts`, passing itself, so that a deep fold is composed from the
    tables already held here; no depth is built twice.  The half spectrum of
    E's indicator is taken on first need and held too, so every certified
    transform fold of E, of any depth, is one inverse transform.  It keeps
    its tables for its own lifetime only, so callers make one per subset and
    drop it with the subset.
    """

    def __init__(self, dom: PointDomain, E):
        self.dom = dom
        self.indices = dom.as_indices(E)
        self._tables = {}
        self._hat = None

    def __len__(self) -> int:
        return len(self.indices)

    def __array__(self, dtype=None, copy=None):
        """E's flat indices: np.asarray reads a ladder as its subset."""
        return np.array(self.indices, dtype=dtype, copy=copy)

    def fold(self, j: int) -> CountTable:
        if j not in self._tables:
            self._tables[j] = fold_counts(self.dom, self, j)
        return self._tables[j]

    def transform(self) -> np.ndarray:
        """`_rfft` of E's indicator, taken once and held."""
        if self._hat is None:
            self._hat = _rfft(self.dom, np.bincount(self.indices, minlength=self.dom.size))
        return self._hat


def lambda_k(E: FoldLadder, k: int) -> int:
    """k-energy of E: ordered k-tuples whose two half-sums agree, the sum of
    r_{k/2}^2, for even k >= 2."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"k-energy needs even k >= 2, got k = {k}; "
                        "odd k is handled through the product of neighbours")
    r = E.fold(k // 2).values
    return _exact_dot(r, r, len(E) ** k)


def energy_term(E: FoldLadder, k: int) -> tuple:
    """(lo, hi, detail): the even energies that control k-fold counts.

    Even k gives lo = hi = Lambda_k; odd k gives Lambda_{k-1} and
    Lambda_{k+1}.  Bounds use the geometric mean sqrt(lo * hi), and `detail`
    is what reports record: {"k_energy": Lambda_k} for even k,
    {"k_energy_product": lo * hi} for odd k.
    """
    if k % 2 == 0:
        lam = lambda_k(E, k)
        return lam, lam, {"k_energy": lam}
    lo = lambda_k(E, k - 1)
    hi = lambda_k(E, k + 1)
    return lo, hi, {"k_energy_product": lo * hi}


def nu_k(E: FoldLadder, values, k: int) -> CountTable:
    """nu_k(t) = k-tuples from E whose coordinate sum z has F(z) = t.

    values is F's value table over E's domain, built once per F and domain
    by the caller: `QuadraticForm.value_table(dom)` gives the distance
    count, and `geometry.eval_poly_table(dom, P)` the table that `nu_P_k`
    shifts; either one's support is `delta_set`.  The count is defined for
    any F; callers that need a nondegenerate form check it with
    `QuadraticForm.require_nondegenerate`.  np.add.at bins in the fold
    table's own dtype: int64 entries in int64, object entries as Python ints.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    values = E.dom.as_values(values)
    r = E.fold(k).values
    nz = np.flatnonzero(r)
    table = CountTable(q=E.dom.ctx.q, values=np.zeros(E.dom.ctx.q, dtype=r.dtype))
    np.add.at(table.values, values[nz], r[nz])
    if table.total() != len(E) ** k:
        raise InvariantError("value-binning lost mass")
    return table


def nu_P_k(ctx: FieldContext, table: CountTable, X) -> CountTable:
    """nu_{P,k}(t) = pairs (a, k-tuple) with a in X and a + P(sum) = t, the
    sum over a in X of table(t - a).

    table is `nu_k(E, pvals, k)`, the k-fold count binned by P's value
    table.  X holds field elements (see `FieldContext.element`); a repeated
    element counts once.  The table is nonzero exactly on X + Delta, as
    every table(t - a) is nonnegative, so its count of nonzero cells is
    |X + Delta|.  The count is defined for any P; the paper's P is
    diagonal, and the affine spectrum that the second-moment audit reads
    rejects any other.
    """
    xs = sorted(set(ctx.element(a) for a in X))
    if not xs:
        raise EmptyXError("shift set X must be nonempty")
    mass = len(xs) * table.total()
    dtype = _table_dtype(mass)
    shifted = table.values.astype(dtype)
    ts = np.arange(ctx.q, dtype=np.int64)
    out = np.zeros(ctx.q, dtype=dtype)
    for a in xs:
        # nu(t + a) += table(t): adding a permutes the scalar domain
        out[ctx.add_vec(ts, np.int64(a))] += shifted
    result = CountTable(q=ctx.q, values=out)
    if result.total() != mass:
        raise InvariantError("shift-sum lost mass")
    return result


@dataclass(frozen=True)
class DeltaSet:
    """Value set {F(z) : r_k(z) > 0} with coverage flags."""

    values: tuple
    covers_Fq_star: bool
    covers_Fq: bool

    def as_dict(self) -> dict:
        return {"delta": list(self.values), "covers_Fq_star": self.covers_Fq_star,
                "covers_Fq": self.covers_Fq}


def delta_set(table: CountTable) -> DeltaSet:
    """Generalized distance set of E under F, over k-fold sums: the support
    {t : nu(t) > 0} of table = `nu_k(E, values, k)` for F's value table."""
    seen = tuple(np.flatnonzero(table.values).tolist())
    covers_star = np.count_nonzero(table.values[1:]) == table.q - 1
    return DeltaSet(values=seen, covers_Fq_star=bool(covers_star),
                    covers_Fq=len(seen) == table.q)


def second_moment(table: CountTable) -> int:
    """Exact sum of squared counts."""
    return _exact_dot(table.values, table.values, table.total() ** 2)


def _require_total(table: CountTable, x_size: int, e_size: int, k: int):
    expected = x_size * e_size ** k
    if table.total() != expected:
        raise InconsistentTotalError(
            f"nu table totals {table.total()}, expected {x_size}*{e_size}^{k} = {expected}")


def sumset_lower_bound(table: CountTable, x_size: int, e_size: int, k: int) -> Fraction:
    """Cauchy-Schwarz lower bound |X|^2 |E|^{2k} / sum_t nu(t)^2 as an exact rational."""
    _require_total(table, x_size, e_size, k)
    sq = second_moment(table)
    if sq == 0:
        return Fraction(0)
    return Fraction(x_size * x_size * e_size ** (2 * k), sq)


# -- inequality audits ---------------------------------------------------------
#
# Each audit compares exact integer counts against the expander-mixing bound
# with the graph's *measured* second eigenvalue and *exact* degree: in that
# form the inequality is a theorem, so a violation is a hard bug.  The
# normalized variant (degree replaced by q^{d-1}, eigenvalue by its classical
# ceiling) is reported alongside as data, never asserted.


@dataclass(frozen=True)
class InequalityAudit:
    name: str
    deviation: float
    bound: float
    ok: bool
    normalized_deviation: float
    normalized_bound: float
    normalized_ok: bool
    detail: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "deviation": self.deviation, "bound": self.bound,
                "ok": self.ok, "normalized_deviation": self.normalized_deviation,
                "normalized_bound": self.normalized_bound,
                "normalized_ok": self.normalized_ok, **self.detail}


def _verdict(deviation: float, bound: float) -> bool:
    return deviation <= bound + AUDIT_RTOL * bound + 1e-12


def energy_growth_audit(V: FoldLadder, E: FoldLadder, k: int,
                        graph: Spectrum) -> InequalityAudit:
    """Even-k energy of E inside a variety V, against the Cayley-graph bound.

    V is the variety's ladder and `graph` its Cayley spectrum, both of which
    callers build once per variety.  Hard checks: (a) the multiset mixing
    inequality for the exact edge count e between the half-sum multisets,
    and (b) Lambda_k <= e (every k-tuple counted by the energy lands in V
    because E is contained in V).  The normalized gap against |E|^{k-1}/q is
    reported only.

    The correlation acc below is the fold 1_{-V} (*) r_{k/2}, exact by the
    engine of `fold_counts`: the certified transform of the two indicators,
    the conjugate of V's held half spectrum (the half spectrum of 1_{-V}, for
    real 1_V) times E's to the power k/2, or else limb products of 1_{-V} and
    r_{k/2}.
    """
    if k % 2 != 0 or k < 4:
        raise OddKError(f"energy growth audit needs even k >= 4, got {k}")
    dom = E.dom
    if not np.isin(E.indices, V.indices).all():
        raise ValueError("E must be a subset of the variety")
    half = k // 2
    e_size = len(E)
    # e = sum_u r_{k/2-1}(u) * acc(u), acc(u) = sum_{v in V} r_{k/2}(u + v):
    # acc is the fold of 1_{-V} with r_{k/2}, of mass |V| |E|^{k/2}.
    acc_mass = len(V) * e_size ** half
    acc = None
    if _table_dtype(acc_mass) is np.int64:
        # 1_{-V} has the norms of 1_V, and its half spectrum is V's conjugate.
        acc = _transform_fold(dom, [(_norms(V.fold(1).values), V.transform().conj(), 1),
                                    (_norms(E.fold(1).values), E.transform(), half)])
    if acc is None:
        neg_v = np.bincount(dom.index_neg(V.indices), minlength=dom.size)
        acc = _convolve(dom, neg_v, E.fold(half).values)
    e = _exact_dot(E.fold(half - 1).values, acc, e_size ** (half - 1) * acc_mass)
    lam_k = lambda_k(E, k)
    lam_km2 = lambda_k(E, k - 2)
    main = Fraction(len(V) * e_size ** (k - 1), dom.size)
    deviation = abs(float(Fraction(e) - main))
    bound = graph.lambda_mixing * math.sqrt(float(lam_km2) * float(lam_k))
    contained = lam_k <= e
    norm_main = Fraction(e_size ** (k - 1), dom.ctx.q)
    norm_dev = abs(float(Fraction(lam_k) - norm_main))
    norm_bound = 2.0 * dom.ctx.q ** ((dom.d - 1) / 2) * math.sqrt(float(lam_km2) * float(lam_k))
    return InequalityAudit(
        name="energy-growth", deviation=deviation, bound=bound,
        ok=_verdict(deviation, bound) and contained,
        normalized_deviation=norm_dev, normalized_bound=norm_bound,
        normalized_ok=_verdict(norm_dev, norm_bound),
        detail={"k": k, "size": e_size, "edge_count": e, "k_energy": lam_k,
                "energy_upper_slack": e - lam_k, "main": float(main)})


def second_moment_audit(E: FoldLadder, table: CountTable, x_size: int, k: int,
                        graph: Spectrum) -> InequalityAudit:
    """sum_t nu_{P,k}(t)^2 against |X|^2|E|^{2k}/q + lambda * |X| * (energy term).

    `table` is nu_{P,k} of E for a shift set of x_size distinct elements, and
    `graph` the spectrum of the affine Cayley digraph of P.
    """
    dom = E.dom
    e_size = len(E)
    _require_total(table, x_size, e_size, k)
    sq = second_moment(table)
    lo, hi, _ = energy_term(E, k)
    energy = float(lo) * float(hi)
    main = Fraction(x_size ** 2 * e_size ** (2 * k), dom.ctx.q)
    excess = float(Fraction(sq) - main)   # audit is one-sided
    bound = graph.lambda_mixing * x_size * energy
    norm_bound = float(dom.ctx.q ** dom.d) * x_size * energy
    return InequalityAudit(
        name="second-moment", deviation=max(excess, 0.0), bound=bound,
        ok=_verdict(max(excess, 0.0), bound),
        normalized_deviation=max(excess, 0.0), normalized_bound=norm_bound,
        normalized_ok=_verdict(max(excess, 0.0), norm_bound),
        detail={"k": k, "size": e_size, "x_size": x_size,
                "second_moment": sq, "main": float(main)})


def nu_deviation_audits(E: FoldLadder, table: CountTable, k: int,
                        graphs_by_t: dict, ts=None) -> list:
    """Deviation of nu_k(t) from its mixing main term, for each t in `ts`
    (default every t != 0), given the nu_k table of E.

    The energy is the geometric mean of `energy_term`.  graphs_by_t maps t to
    the Spectrum of any Euclidean level graph in t's square class: only its
    exact degree, which feeds the main term, and its lambda_mixing are read,
    and both are the same on the whole class.
    """
    dom = E.dom
    q = dom.ctx.q
    ts = tuple(range(1, q) if ts is None else ts)
    if any(t % q == 0 for t in ts):
        raise ValueError("deviation audit is stated for t != 0 only")
    e_size = len(E)
    _require_total(table, 1, e_size, k)
    lo, hi, energy_detail = energy_term(E, k)
    energy = math.sqrt(float(lo) * float(hi))
    out = []
    for t in ts:
        graph = graphs_by_t[t]
        main = Fraction(graph.degree * e_size ** k, dom.size)
        deviation = abs(float(Fraction(table[t]) - main))
        bound = graph.lambda_mixing * energy
        norm_main = Fraction(e_size ** k, q)
        norm_dev = abs(float(Fraction(table[t]) - norm_main))
        norm_bound = 2.0 * q ** ((dom.d - 1) / 2) * energy
        out.append(InequalityAudit(
            name="nu-deviation", deviation=deviation, bound=bound,
            ok=_verdict(deviation, bound),
            normalized_deviation=norm_dev, normalized_bound=norm_bound,
            normalized_ok=_verdict(norm_dev, norm_bound),
            detail={"t": t, "nu_t": table[t], "k": k, "size": e_size,
                    "main": float(main), **energy_detail}))
    return out


def energy_recursion_ratio(E: FoldLadder, k: int) -> dict:
    """Measured constant in the even-k energy recursion: Lambda_k against
    q^{(d-1)(k-2)/2} |E| + |E|^{k-1}/q.  Reported, never asserted."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"energy recursion ratio needs even k, got {k}")
    lam = lambda_k(E, k)
    q, d, size = E.dom.ctx.q, E.dom.d, len(E)
    denom = q ** ((d - 1) * (k - 2) / 2) * size + size ** (k - 1) / q
    return {"k": k, "size": size, "k_energy": lam,
            "bound_term": denom, "ratio": float(lam) / denom if denom else math.inf}
