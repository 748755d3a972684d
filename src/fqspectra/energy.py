"""Exact fold counts, k-energies, the distance-count tables nu_k and nu_{P,k},
generalized distance sets, and second-moment/sumset quantities.

Everything on the counting side is exact integer arithmetic.  A count
table, over F_q^d (a fold) or over F_q (nu_k, nu_{P,k}), is a plain 1-D
array: int64 while its total mass is below `domains._INT64_SAFE`, Python
ints (object dtype) once it could overflow int64, so inequality audits
always compare an exact integer against a floating bound.  Every float
read, a fold table, a fold's value at the origin or the distance counts by
dual class, becomes counts through the one rounding gate that `fold_counts`
states, against the bounds it derives; no count comes from a refused read.

A `FoldLadder` holds one subset's fold tables r_1, r_2, ... and its even
energies, builds each at most once and holds every one read-only; it is the
one form in which a subset reaches the counts and audits here, the growth
audit's variety included.
`nu_k` bins a fold by any value table, and the generalized distance set
(`delta_set`) and nu_{P,k} (`nu_P_k`), whose support is X + Delta, are both
read off that one binned table.  For the distance count of a nondegenerate
diagonal form, `FormLevels` reads the same table off a ladder's held half
spectrum by dual classes, against a q x q class table built once from two
level transforms, with no inverse transform and no fold table; it falls
back to `nu_k` whenever the gate refuses that read (`fold_counts`, step 3'').
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import (
    _FLOAT_EXACT,
    _INT64_SAFE,
    _MATMUL_P_MAX,
    PointDomain,
    require_table_budget,
    trace_frequencies,
)
from .errors import (
    EmptyXError,
    InconsistentTotalError,
    InvariantError,
    OddKError,
)
from .field import FieldContext
from .geometry import QuadraticForm
from .spectra import Audit, Spectrum, within_slack

# Constant C of the relative error C * L^(3/2) * u of one DFT pass along
# lines of length L >= 3 (`fold_counts`, step 0).
_DFT_ERROR_CONST = 8.0
# Longest line of one direct pass: the axes go in groups of a, p^a at most
# this (`_axis_groups`), so p = 3 runs one 9-point pass per pair of axes.
_DFT_LINE_MAX = 9


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


def _table_dtype(mass: int):
    """int64 for a count table of this total mass, or object when it could overflow."""
    return object if mass >= _INT64_SAFE else np.int64


def _pass_errors(dom: PointDomain) -> tuple:
    """(eps, eps') of `_rfft` and `_irfft` read on the full grid, relative to
    the 2-norm (`fold_counts`, step 0)."""
    u = 2.0 ** -53
    p = dom.ctx.p
    # Each pass over a axes charges its own line length p^a.
    groups = _axis_groups(p, dom.nd)
    per_pass = math.expm1(sum(groups.count(a) * math.log1p(_DFT_ERROR_CONST * (p ** a) ** 1.5 * u)
                              for a in set(groups)))
    # Half spectra: an error extends to the full grid with at most sqrt(2) times its norm.
    return math.sqrt(2) * per_pass, math.sqrt(2) * ((1 + per_pass) * (1 + u) ** 2 - 1)


def _product_error_bound(dom: PointDomain, sizes, norms) -> tuple:
    """(D, min_i A_i) of `fold_counts` step 2 for the factors whose l1 norms
    are `sizes` and l2 norms `norms`: the computed product G~ of their half
    spectra has ||G~ - G||_2 <= sqrt(N) D on the full grid."""
    u = 2.0 ** -53
    eps = _pass_errors(dom)[0]
    eta = eps * math.sqrt(dom.size)
    m = len(sizes)
    theta = math.expm1((m - 1) * math.log1p(math.sqrt(2) * 2 * u / (1 - 2 * u)))
    terms = [norms[i] * math.prod(sizes[:i] + sizes[i + 1:]) for i in range(m)]
    return (1 + eta) ** (m - 1) * (eps * sum(terms) + theta * (1 + eps) * min(terms)), min(terms)


def _fold_error_bound(dom: PointDomain, sizes, norms) -> float:
    """A priori bound on max |computed - exact| of the transform fold whose
    factors have l1 norms `sizes` and l2 norms `norms`; see `fold_counts`."""
    spread, least = _product_error_bound(dom, sizes, norms)
    eps_inv = _pass_errors(dom)[1]
    return spread * (1 + eps_inv) + eps_inv * least


def _l1_bound(sizes, norms) -> float:
    """P of `fold_counts` step 3', ||G||_1 <= N P for the product G of the
    factors' transforms: the least l_a l_b prod_{i != a, b} s_i over a != b,
    and l_1 for one factor."""
    if len(sizes) == 1:
        return norms[0]
    return min(norms[a] * norms[b] * math.prod(s for i, s in enumerate(sizes) if i not in (a, b))
               for a, b in itertools.combinations(range(len(sizes)), 2))


def _norms(table: np.ndarray) -> tuple:
    """(l1, l2) of a nonnegative count table: l1 exact, l2 the root of the
    exact sum of squares, which is at most l1 times the largest entry."""
    s = _exact_total(table)
    return s, math.sqrt(_exact_dot(table, table, s * int(table.max(initial=0))))


def _at_zero_error_bound(dom: PointDomain, sizes, norms) -> float:
    """A priori bound on |computed - exact| of the value at z = 0 of the
    transform fold of two or more factors, as `_fold_at_zero` reads it (see
    `fold_counts`, step 3')."""
    u = 2.0 ** -53
    n = (dom.ctx.p // 2 + 1) * (dom.size // dom.ctx.p)
    grow = (1 + n * u / (1 - n * u)) * (1 + u) - 1
    bound = _fold_error_bound(dom, sizes, norms)
    return bound + grow * (_l1_bound(sizes, norms) + bound)


def _admitted(mass: int, bound):
    """The a priori half of the gate of `fold_counts`: the bound or bounds
    `bound()` of a read of this mass, or None when the mass reaches 2^53
    (no bound is then taken) or a bound is not below 1/2."""
    if mass >= _FLOAT_EXACT:
        return None
    bound = bound()
    return bound if np.less(bound, 0.5).all() else None


def _rounded(mass: int, bound, estimate):
    """The one float-to-exact read (the gate of `fold_counts`): `estimate()`
    rounded to int64 counts, or None when the gate refuses: the mass reaches
    2^53, a bound `bound()` is not below 1/2, a residual exceeds its bound,
    or a count lies outside [0, mass].  Both arguments are deferred, so a
    refused mass takes no bound and a refused bound no estimate."""
    bound = _admitted(mass, bound)
    if bound is None:
        return None
    value = estimate()
    r = np.rint(value)
    # One reduction, by method: on the single value of step 3' each numpy
    # function call would cost more than the comparisons themselves.
    ok = (np.abs(value - r) <= bound) & (r >= 0) & (r <= mass)
    return r.astype(np.int64) if ok.all() else None


def _axis_groups(p: int, nd: int) -> tuple:
    """The axis counts a of the direct passes over (Z_p)^(nd), in axis order:
    a is the largest with p^a <= _DFT_LINE_MAX, and a last group takes the
    remainder.  So p = 3 passes over pairs of axes, (2, ..., 2, 1) for odd
    nd, and every p >= 5 over single axes."""
    a = 1
    while p ** (a + 1) <= _DFT_LINE_MAX:
        a += 1
    return (a,) * (nd // a) + ((nd % a,) if nd % a else ())


def _half_weights(p: int) -> np.ndarray:
    """The weights of the axis-0 frequencies 0..p // 2 of a half spectrum: 1
    on 0 and 2 on the others, which stand for their mirrors too, so that a
    weighted sum over the half grid is the sum of the Hermitian extension
    over the full grid (p is odd)."""
    return np.array([1.0] + [2.0] * (p // 2))


@functools.lru_cache(maxsize=8)
def _dft_matrices(p: int, a: int) -> tuple:
    """(W, W*, first, last) of the direct DFT of (Z_p)^a, one pass over a
    axes, with lines of length L = p^a (see `fold_counts`).

    W[j, l] = exp(-2 pi i (j . l) / p) for the base-p digit vectors j and l
    of the row and column, from cos and sin of the reduced angle pi g / p,
    g = 2 (j . l) mod 2p taken in (-p, p], so |angle| <= pi.  first is the
    top h L / p rows of W, h = p // 2 + 1, those whose leading digit is
    below h, transposed; last is the same columns of W weighted by
    `_half_weights`.  Both are float64 arrays of L rows with real and
    imaginary parts interleaved, so a float64 matmul against them is a
    complex one."""
    size = p ** a
    digits = np.arange(size)[:, None] // p ** np.arange(a - 1, -1, -1) % p
    g = 2 * ((digits @ digits.T) % p)
    g[g > p] -= 2 * p
    angle = np.pi * g / p
    w = np.empty((size, size), dtype=np.complex128)
    w.real = np.cos(angle)
    w.imag = -np.sin(angle)
    half = (p // 2 + 1) * size // p
    last = w[:, :half] * np.repeat(_half_weights(p), size // p)
    out = (w, w.conj(), np.ascontiguousarray(w[:half].T).view(np.float64),
           np.ascontiguousarray(last).view(np.float64))
    for m in out:
        m.setflags(write=False)
    return out


def _rfft(dom: PointDomain, table: np.ndarray) -> np.ndarray:
    """The half spectrum of a real table over (Z_p)^(nd), halved along axis
    0: shape (p // 2 + 1, p, ..., p) (see `fold_counts`)."""
    p = dom.ctx.p
    if p > _MATMUL_P_MAX:
        return np.fft.rfftn(table.reshape(dom.shape), axes=(*range(1, dom.nd), 0))
    first_group, *groups = _axis_groups(p, dom.nd)
    # Each pass transforms the leading axis group, and the transposed operand
    # leaves it trailing, so after the last group the axes are back in order.
    first = _dft_matrices(p, first_group)[2]
    y = np.asarray(table, dtype=np.float64).reshape(p ** first_group, -1).T @ first
    y = y.view(np.complex128)
    for a in groups:
        y = y.reshape(p ** a, -1).T @ _dft_matrices(p, a)[0]
    return y.reshape((p // 2 + 1,) + dom.shape[1:])


def _irfft(dom: PointDomain, hat: np.ndarray) -> np.ndarray:
    """The flat real table whose `_rfft` is the half spectrum hat."""
    p = dom.ctx.p
    if p > _MATMUL_P_MAX:
        return np.fft.irfftn(hat, s=dom.shape, axes=(*range(1, dom.nd), 0)).reshape(dom.size)
    first_group, *groups = _axis_groups(p, dom.nd)
    # Each pass transforms the trailing axis group and leaves it leading; the
    # group of the half axis, trailing after the others, goes last and gives
    # reals.
    z = hat
    for a in reversed(groups):
        z = _dft_matrices(p, a)[1] @ z.reshape(-1, p ** a).T
    last = _dft_matrices(p, first_group)[3]
    real = last @ z.reshape(-1, last.shape[1] // 2).view(np.float64).T
    real *= 1.0 / dom.size
    return real.reshape(dom.size)


def _transform_fold(dom: PointDomain, norms, hats):
    """The convolution of nonnegative count tables by a Fourier transform over
    (Z_p)^(nd), as int64 counts, or None when the gate of `fold_counts`
    refuses it or its total is not its mass.  norms and hats hold one entry
    per copy of a factor: its `_norms` and its half spectrum (`_rfft`)."""
    sizes, l2s = zip(*norms)
    mass = math.prod(sizes)
    r = _rounded(mass, lambda: _fold_error_bound(dom, sizes, l2s),
                 lambda: _irfft(dom, _product(hats)))
    return r if r is not None and _exact_total(r) == mass else None


def _fold_at_zero(dom: PointDomain, norms, integrand: np.ndarray):
    """The value at z = 0 of the transform fold of two or more factors, whose
    `_norms` are norms, one per copy, as an exact int, or None when the gate
    of `fold_counts` refuses it (with B0 of step 3').  integrand is the real
    part of the product G of their half spectra (the conjugate one for a
    reflected factor f(-.)), taken as a real array; the value is its
    weighted sum over the half grid, with no inverse transform."""
    sizes, l2s = zip(*norms)
    rows = integrand.reshape(dom.ctx.p // 2 + 1, -1)
    r = _rounded(math.prod(sizes), lambda: _at_zero_error_bound(dom, sizes, l2s),
                 lambda: _half_weights(dom.ctx.p) @ rows.sum(axis=1) / dom.size)
    return None if r is None else int(r)


def _product(hats) -> np.ndarray:
    """The bin-by-bin product of half spectra, multiplied in order into one
    new array (the first hat itself for one)."""
    if len(hats) == 1:
        return hats[0]
    prod = hats[0] * hats[1]
    for hat in hats[2:]:
        prod *= hat
    return prod


def _times_power(x: np.ndarray, power: np.ndarray, h: int) -> np.ndarray:
    """x power^h, by h real products in order, into one new array."""
    out = x * power
    for _ in range(h - 1):
        out *= power
    return out


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
        # The gate's a priori half for every product, before any transform.
        if any(_admitted(x[2][0] * y[2][0], lambda: _fold_error_bound(dom, *zip(x[2], y[2])))
               is None for x, y in pairs):
            continue
        hats_a = {shift: _rfft(dom, limb) for shift, limb, _ in limbs_a}
        hats_b = hats_a if b is a else {shift: _rfft(dom, limb) for shift, limb, _ in limbs_b}
        groups = {}
        for (sx, _, nx), (sy, _, ny) in pairs:
            r = _transform_fold(dom, [nx, ny], [hats_a[sx], hats_b[sy]])
            if r is None:
                break
            if b is a and sx != sy:
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


def fold_counts(dom: PointDomain, E, j: int) -> np.ndarray:
    """r_j(z) = number of ordered j-tuples from E summing to z, exact.

    E is a `FoldLadder` over dom, a sequence of points or a 1-D integer
    array of flat indices.  Depth 1 is the indicator that E's ladder bins
    once and holds, over any q^d: that read-only array itself when the table
    is int64.  Depth j >= 2 needs q^d <= TABLE_MAX (SearchSpaceTooLargeError
    otherwise).  It is the transform fold of j copies of 1_E when the table
    is int64 and the gate below passes it, and otherwise r_a (*) r_b,
    a = ceil(j/2) and b = floor(j/2), by limb products, with r_a and r_b
    read from E's ladder (a new one when E is not a ladder), so that no
    depth is folded twice.

    Transform fold.  F_q^d is (Z_p)^(nd) on flat indices, so with N = q^d
    the convolution of count vectors f_1..f_m is the inverse transform of
    prod_i F_i, F_i the transform of f_i, rounded with rint.  Every f_i is
    real, so only half spectra are taken: `_rfft` keeps axis 0's frequencies
    0..floor(p/2) and all of the other axes', `_irfft` reads such an array
    as half of a Hermitian one, and r_j is _irfft(_rfft(1_E)^j), where E's
    ladder takes _rfft(1_E) once and holds it.  For p <= _MATMUL_P_MAX both
    run the direct DFT, one pass per group of a axes (`_axis_groups`: a is
    the largest with L = p^a <= _DFT_LINE_MAX, so a = 2 for p = 3, the last
    group taking what remains, and a = 1 for every other p).  A pass is one
    BLAS matmul of the L x L twiddle matrix W of (Z_p)^a (`_dft_matrices`)
    against the table read as (L, N / L), whose transposed operand leaves
    the transformed group at the back.  The forward transform's first pass
    multiplies the real table by the real and imaginary parts of the top
    h L / p rows of W, h = floor(p/2) + 1, those whose axis-0 digit is below
    h; the inverse's last pass rebuilds the real table from those bins,
    weighted 1 on axis-0 frequency 0 and 2 on the others, and one 1/N
    scaling follows.  Above the crossover both call numpy.fft with axis 0
    halved, which gives the same layout.  A fold's factors are one `_norms`
    pair (l1, l2) per copy and, where a table is built, one half spectrum
    per copy.

    The gate (`_rounded`).  A fold table, a fold's value at the origin (step
    3') and the distance counts by dual class (step 3'') are read through
    one gate, given the mass, the a priori bound or bounds B, B0 or B_t on
    |computed - exact| derived below, and a deferred estimate.  It refuses,
    and the caller takes an exact path, when the mass reaches 2^53 (a count
    need not be exact in float64), a bound is not below 1/2 (rint need not
    be exact), a residual exceeds its bound, or a rounded count lies
    outside [0, mass]; the two table reads also refuse a total other than
    the mass.

    Derivation of B, for s_i = ||f_i||_1 and l_i = ||f_i||_2 (the indicator
    fold has f_i = 1_E, s_i = |E|, l_i = sqrt|E|, m = j; a limb product has
    m = 2).  Let u = 2^-53 and gamma_n = n u / (1 - n u).

    0. One pass.  Each DFT of length L along one line, y_l = sum_j W[j, l]
       x_j, has relative 2-norm error at most a_L = C L^(3/2) u with C = 8.
       W[j, l] is exp(-i theta), theta = pi g / p for the integer
       g = 2 (j . l) mod 2p taken in (-p, p], j . l the dot product of the
       base-p digits of j and l, so |theta| <= pi.  np.pi is within 0.36 u
       of pi, relative, and g is exact, so fl(fl(pi g) / p) is within
       2.36 u |theta| <= 7.42 u of theta; with cos and sin within 4 ulp, at
       most 4 u each on [-1, 1], every twiddle has |W~ - W| <= tau = 13.1 u.
       The real and imaginary parts of y_l are each a sum of at most 2L real
       products, in whatever order and with whatever fused multiply-adds BLAS
       takes, so Higham's inner-product bound (Accuracy and Stability of
       Numerical Algorithms, (3.5)), on both parts, gives |y~_l - y_l| <=
       (tau + sqrt(2) gamma_2L (1 + tau)) sum_j |x_j|.  As sum_j |x_j| <=
       sqrt(L) ||x||_2 and the exact pass has ||y||_2 = sqrt(L) ||x||_2, the
       pass has the relative error sqrt(L) (tau + sqrt(2) gamma_2L (1 + tau)),
       under a_L = sqrt(L) C L u for every line length L >= 3: at L = 3 the
       bracket is (13.1 + 8.5) u against C L u = 24 u, and it grows by about
       2.83 u per unit of L, C L u by 8 u.  The forward transform's first
       pass (L products per part) does no worse; the inverse's last pass
       (2 h L / p <= L + L / p products per output) is bounded the same way
       against the Hermitian extension of its line, whose l1 norm the
       weights 1, 2, ..., 2 count.  Above _MATMUL_P_MAX the same a_p is
       assumed of numpy.fft's radix and Bluestein passes, one per axis,
       which do better than the direct sum.

    The exact pass scales every line by sqrt(L), so the passes give a
    complex transform the relative error e = prod (1 + a_L) - 1 over their
    line lengths L, e = (1 + a_p)^(nd) - 1 for p >= 5, and its inverse with
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
       At the origin (step 3') a power |F|^2 = re^2 + im^2, or a cross term
       Re(conj(F) F') = re re' + im im', stands for one of the m - 1
       products, with error at most gamma_2 < mu times |F|^2, or |F| |F'|;
       each real product of two such terms adds u < mu.
       Telescoping prod F~ - prod F and putting A_i = l_i prod_{l != i} s_l,
       ||G~ - G||_2 <= sqrt(N) (1 + eta)^(m-1) (eps sum_i A_i
       + theta (1 + eps) min_i A_i) =: sqrt(N) D.
    3. Inverse: ||IDFT x||_2 = ||x||_2 / sqrt(N) and, by Young, the exact
       fold has ||r||_2 <= min_i A_i, so ||r~ - r||_2 <= D + eps' (min_i A_i + D).

    Hence max |r~ - r| <= B = D (1 + eps') + eps' min_i A_i, which grows
    with eps and eps', so it is never below the bound of complex transforms
    (e and e' in their place).  For |E| = 345, j = 3 over F_31^3, B is
    about 6e-6.

    Fold at the origin.  Where one cell r(0) = N^-1 sum_m G(m) is all that
    is read, `_fold_at_zero` takes it with no inverse transform: an energy
    Lambda_2h = (r_h (*) r_h(-.))(0) and the growth audit's edge count are
    such cells, the half spectrum of a reflected real factor f(-.) being the
    conjugate of f's.  The sum of the Hermitian extension of G~ over the full
    grid is Re sum w G~ over the n = h N / p bins of the half grid, w = 1 on
    axis-0 frequency 0 and 2 on 1..(p-1)/2 (p is odd).  Only Re G~ is read,
    so it is taken as a real array from E's power spectrum |H|^2: |H|^(2h)
    for Lambda_2h, and Re(conj(V^) H) |H|^(2h-2) for the edge count, |H|^2
    and the cross term as in step 2 and each further factor one real
    product.  So step 3 becomes:

    3'. Sum: Higham's (3.5), with the weights exact, bounds the rounding of
       sum w x, taken in any order, by gamma_n sum w |x|, and sum w |G~| is
       the l1 norm of the extension, at most ||G||_1 + ||G~ - G||_1 <=
       N P + N D, where P = min over a != b of l_a l_b prod_{i != a, b} s_i
       (Cauchy-Schwarz and Parseval on two factors, |F_i| <= s_i on the
       rest).  The exact sum of the extension is within ||G~ - G||_1 <= N D
       of N r(0), and the division by N adds u relative.  So |r~(0) - r(0)|
       <= D + ((1 + gamma_n)(1 + u) - 1)(P + D), at most B0 = B + ((1 +
       gamma_n)(1 + u) - 1)(P + B), as D <= B.

    The gate reads the one value with B0; when it refuses, the caller builds
    the fold table instead.  For |E| = 561 over F_27^3, Lambda_4 has B0
    about 3.2e-3, against B about 3.0e-3 for the table of the same four
    factors, r_4.

    Distance counts by dual class.  The distance count of a nondegenerate
    diagonal form Q = sum_j a_j x_j^2 with levels L_t = {Q = t}, N(t) =
    |L_t|, is nu_k(t) = sum_z r_k(z) 1_{L_t}(z) = N^-1 sum_m H(m)^k L^_t(m) by
    Parseval, H the transform of 1_E and L^_t that of 1_{L_t}, real because
    L_t = -L_t.  For m != 0, completing the square in the Gauss sums of L^_t
    shows that it depends on m only through the dual form Q*(m) = sum_j
    m_j^2 / a_j (the Fourier transform of the sphere in Iosevich-Rudnev
    (2007), used for k-fold sums in Covert-Koh-Pi (2015)): L^_t(m) =
    g_t(Q*(m)).  So, with B_k(c) = sum of H(m)^k over m != 0 with Q*(m) = c,

        nu_k(t) = N^-1 (|E|^k N(t) + sum_c g_t(c) B_k(c)),

    which `FormLevels` reads off E's held half spectrum with no inverse
    transform.  The character of m has the digit frequency omega with
    coordinates lin(m_j) (`domains.trace_frequencies`), so a half-grid bin
    omega has the class cls(omega) = Q*(m); Q*(-m) = Q*(m), so a bin and its
    mirror share a class, and B_k(c) is the sum over the half grid of w Re
    H^k on class c, w as at the origin, the bin omega = 0 left out.  x -> s x
    maps L_t onto L_{s^2 t}, so g_{s^2 t}(x) = g_t(s^2 x): the transforms of
    two levels, one per square class of F_q^*, give every row t != 0, and as
    sum_t 1_{L_t} = 1 has transform 0 off m = 0, g_0 = -sum_{t != 0} g_t.

    3''. Certificate.  By step 1 a level's computed transform has 2-norm
       error at most eps sqrt(N N(t)), so each of its bins is within delta_t
       = eps sqrt(N N(t)) of the exact one.  The table keeps the least bin
       of each class as g~_t(c), and a class whose bins spread over more
       than 2 delta_t raises InvariantError, since the exact bins of a class
       agree: a wrong class map shows there.  The rows s^2 t are exact
       permutations, and the row t = 0 has delta_0 = sum_{t != 0} delta_t +
       gamma_(q-1) sum_{t != 0} (N(t) + delta_t).  The exact |g_t| is at most
       M_t = N(t), as |L^_t| <= |L_t|.  With D and P of steps 2 and 3' for
       the k factors 1_E, the computed G~ = H~^k and the exact sum S(t) =
       sum_{m != 0} g_t(Q*(m)) G(m), the split sum g~ G~ - sum g G = sum g
       (G~ - G) + sum (g~ - g) G~ bounds the error before rounding by N (M_t D +
       delta_t (P + D)).  The class sums, by Higham's (3.5) as in step 3',
       and the q-term dot product with g~ add at most c s_t N, s_t = (M_t +
       delta_t)(P + D) and c = (1 + gamma_n)(1 + gamma_q) - 1, n the half
       grid's cells, and |S~(t)| <= (1 + c) s_t N.  The main term |E|^k N(t)
       (at most N |E|^k) rounds once, its sum with S~ once and the division
       by N once.  So

           |nu~(t) - nu(t)| <= B_t = M_t D + delta_t (P + D) + c s_t
                                    + ((1 + u)^3 - 1)(|E|^k + (1 + c) s_t).

    The gate reads the q counts with B_t for each t, of mass |E|^k; when it
    refuses, `nu_k` bins the fold instead.  For |E| = 345 and k = 3 over
    F_31^3, B_t is about 5e-3 for t != 0 and 2e-2 for t = 0, whose delta_0
    sums the other rows'.

    Limb products.  With base-2^w limbs a = sum_i 2^(w i) a_i and b likewise,
    a (*) b = sum_{i,l} 2^(w(i+l)) (a_i (*) b_l), each limb product a transform
    fold through the gate.  w is the widest width, at most 63 so that limbs
    are int64, at which all products certify; InvariantError if none
    does, or if their sum, in int64 or Python ints as `_table_dtype` picks
    from ||a||_1 ||b||_1 (no partial sum exceeds the total), lacks that mass.
    The products that share a shift w(i+l) are first summed in int64 (see
    `domains._INT64_SAFE`), so a product of L and L' limbs makes only
    L + L' - 1 additions into that table.  Cost: the gate's a priori half
    (`_admitted`: mass and bound) is checked for every product before any
    transform, so a width that it refuses costs none.  At the width taken,
    each limb is transformed once: a square of L limbs takes L forward and
    L (L + 1) / 2 inverse transforms, a product of L and L' limbs L + L'
    forward and L L' inverse, each O(N p nd) as direct sums and O(N log N)
    above the crossover.  On the full F_101^3 sphere
    (|E| = 10,302), r_4 = r_2 (*) r_2 takes 5-bit limbs, 3 forward and 6
    inverse transforms, and r_5 = r_3 (*) r_2 takes 3-bit limbs, 7 of r_3
    and 5 of r_2, so 12 forward and 35 inverse transforms.
    """
    if j < 1:
        raise ValueError(f"fold depth j = {j} must be >= 1")
    ladder = E if isinstance(E, FoldLadder) else FoldLadder(dom, E)
    if j == 1:
        return ladder.indicator.astype(_table_dtype(len(ladder)), copy=False)
    require_table_budget(dom, "fold")
    r = (_transform_fold(dom, [ladder.norms] * j, [ladder.transform()] * j)
         if _table_dtype(len(ladder) ** j) is np.int64 else None)
    if r is None:
        a = ladder.fold((j + 1) // 2)
        r = _convolve(dom, a, a if j % 2 == 0 else ladder.fold(j // 2))
    return r


class FoldLadder:
    """The fold tables r_1, r_2, ... and the even energies of one subset E of
    F_q^d.

    Holds E as flat indices and builds depth j on first use by one call to
    `fold_counts`, passing itself, so that a deep fold is composed from the
    tables already held here; no depth is built twice, and every table held
    is read-only, so no caller can change a cached depth.  Lambda_k is held
    the same way, built on first use by one call to `lambda_k`.  E's
    indicator is binned once: it is the depth-1 table (itself, when int64)
    and the variety's membership test in the growth audit.  Its norms, its
    half spectrum H and the power spectrum |H|^2 are each taken once and
    held, so that a certified fold of any depth is one inverse transform
    and a certified value at the origin one real weighted sum
    (`fold_counts`); a fold of j copies of 1_E has the factors j copies of
    `norms` and of H.  It keeps its tables for its own lifetime only, so
    callers make one per subset and drop it with the subset.
    """

    def __init__(self, dom: PointDomain, E):
        self.dom = dom
        self.indices = dom.as_indices(E)
        self._tables = {}
        self._energies = {}
        self._hat = None

    def __len__(self) -> int:
        return len(self.indices)

    def __array__(self, dtype=None, copy=None):
        """E's flat indices: np.asarray reads a ladder as its subset."""
        return np.array(self.indices, dtype=dtype, copy=copy)

    def fold(self, j: int) -> np.ndarray:
        if j not in self._tables:
            table = fold_counts(self.dom, self, j)
            table.setflags(write=False)
            self._tables[j] = table
        return self._tables[j]

    def energy(self, k: int) -> int:
        if k not in self._energies:
            self._energies[k] = lambda_k(self, k)
        return self._energies[k]

    @functools.cached_property
    def indicator(self) -> np.ndarray:
        """1_E as int64 counts over F_q^d, a multiset's multiplicities
        included: E's one bincount, held read-only.  It is the depth-1 table,
        so it is read over any q^d, with no budget check."""
        counts = np.bincount(self.indices, minlength=self.dom.size)
        counts.setflags(write=False)
        return counts

    def transform(self) -> np.ndarray:
        """`_rfft` of the held indicator, taken once and held; a table over
        F_q^d, so under the fold budget."""
        if self._hat is None:
            require_table_budget(self.dom, "fold")
            self._hat = _rfft(self.dom, self.indicator)
        return self._hat

    @functools.cached_property
    def norms(self) -> tuple:
        """`_norms` of the held indicator, held."""
        return _norms(self.indicator)

    @functools.cached_property
    def power(self) -> np.ndarray:
        """The power spectrum |H|^2 = re^2 + im^2 of the held half spectrum
        H, taken at the first read at the origin and held read-only."""
        hat = self.transform()
        power = np.square(hat.real)
        power += np.square(hat.imag)
        power.setflags(write=False)
        return power


def lambda_k(E: FoldLadder, k: int) -> int:
    """k-energy of E: ordered k-tuples whose two half-sums agree, the sum of
    r_{k/2}^2, for even k >= 2.

    Lambda_2 is the dot product of the depth-1 table with itself.  From k = 4
    on, Lambda_k = (r_{k/2} (*) r_{k/2}(-.))(0) is the certified value at the
    origin (`fold_counts`, step 3') of E's held power spectrum P = |H|^2 to
    the power k/2, and only when that refuses is r_{k/2} built and squared.
    `FoldLadder.energy` holds it."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"k-energy needs even k >= 2, got k = {k}; "
                        "odd k is handled through the product of neighbours")
    half = k // 2
    if half > 1:
        lam = _fold_at_zero(E.dom, [E.norms] * k, _times_power(E.power, E.power, half - 1))
        if lam is not None:
            return lam
    r = E.fold(half)
    return _exact_dot(r, r, len(E) ** k)


def energy_term(E: FoldLadder, k: int) -> tuple:
    """(lo, hi): the even energies that control k-fold counts.

    Even k gives lo = hi = Lambda_k; odd k gives Lambda_{k-1} and
    Lambda_{k+1}.  Bounds use the geometric mean sqrt(lo * hi).
    """
    if k % 2 == 0:
        lam = E.energy(k)
        return lam, lam
    return E.energy(k - 1), E.energy(k + 1)


def nu_k(E: FoldLadder, values, k: int) -> np.ndarray:
    """nu_k(t) = k-tuples from E whose coordinate sum z has F(z) = t.

    values is F's value table over E's domain, built once per F and domain
    by the caller: `QuadraticForm.value_table(dom)` gives the distance
    count, and `geometry.eval_poly_table(dom, P)` the table that `nu_P_k`
    shifts; either one's support is `delta_set`.  The count is defined for
    any F; callers that need a nondegenerate form check it with
    `QuadraticForm.require_nondegenerate`.  The table has length q, one
    count per t, and np.add.at bins in the fold table's own dtype: int64
    entries in int64, object entries as Python ints.
    """
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    values = E.dom.as_values(values)
    r = E.fold(k)
    nz = np.flatnonzero(r)
    table = np.zeros(E.dom.ctx.q, dtype=r.dtype)
    np.add.at(table, values[nz], r[nz])
    if _exact_total(table) != len(E) ** k:
        raise InvariantError("value-binning lost mass")
    return table


class FormLevels:
    """The distance counts nu_k of one nondegenerate diagonal form Q =
    sum_j a_j x_j^2 over dom, read by dual class off a subset's held half
    spectrum, with no inverse transform (`fold_counts`, step 3'').

    values is Q's value table over dom and counts its bincount, N(t) =
    |{Q = t}| for every t, both built once by the caller.  The class map of
    the half grid and the q x q class table are built on the first read of
    a nonempty subset and held: the table from `_rfft` of two level
    indicators, one per square class of F_q^*.  `nu_k` stays the engine for
    any value table and the fallback here.
    """

    def __init__(self, dom: PointDomain, form: QuadraticForm, values, counts):
        form.require_nondegenerate(dom.ctx)
        self.dom = dom
        self.form = form
        self.values = dom.as_values(values)
        self.counts = np.asarray(counts, dtype=np.int64)

    def nu_k(self, E: FoldLadder, k: int) -> np.ndarray:
        """The table `nu_k(E, values, k)`: read by dual class, in int64, when
        the gate passes it, else binned off E's fold by `nu_k`.  An empty
        E gives int64 zeros with no transform.  Needs q^d <= TABLE_MAX, as a
        fold of depth 2 does."""
        if k < 1:
            raise ValueError(f"k = {k} must be >= 1")
        if len(E) == 0:
            return np.zeros(self.dom.ctx.q, dtype=np.int64)
        table = self._read(E, k)
        return nu_k(E, self.values, k) if table is None else table

    def _read(self, E: FoldLadder, k: int):
        """The table of step 3'', or None when the gate of `fold_counts`
        refuses it (with B_t) or its total is not the mass |E|^k."""
        mass = len(E) ** k
        r = _rounded(mass, lambda: self._error_bounds(E, k), lambda: self._estimate(E, k))
        return r if r is not None and _exact_total(r) == mass else None

    def _estimate(self, E: FoldLadder, k: int) -> np.ndarray:
        """nu_k(t) for every t as floats, (|E|^k N(t) + sum_c g_t(c) B_k(c)) / N,
        B_k(c) the sum over class c of w Re(H^k) on the half grid, the bin
        at 0 left out (step 3'')."""
        dom = self.dom
        hat = E.transform()
        g, _ = self._table
        x = np.real(_product([hat] * k)).reshape(len(hat), -1) * _half_weights(dom.ctx.p)[:, None]
        x[0, 0] = 0.0
        sums = np.bincount(self._classes, weights=x.reshape(-1), minlength=dom.ctx.q)
        return (float(len(E) ** k) * self.counts + g @ sums) / dom.size

    def _error_bounds(self, E: FoldLadder, k: int) -> np.ndarray:
        """B_t of step 3'' for every t, for the k factors 1_E."""
        _, delta = self._table
        u = 2.0 ** -53
        sizes, norms = zip(*[E.norms] * k)
        err = _product_error_bound(self.dom, sizes, norms)[0]   # D
        l1 = _l1_bound(sizes, norms) + err                     # P + D
        n, q = len(self._classes), self.dom.ctx.q
        c = (1 + n * u / (1 - n * u)) * (1 + q * u / (1 - q * u)) - 1
        s = (self.counts + delta) * l1
        return (self.counts * err + delta * l1 + c * s
                + ((1 + u) ** 3 - 1) * (len(E) ** k + (1 + c) * s))

    @functools.cached_property
    def _classes(self) -> np.ndarray:
        """cls(omega) = Q*(m), Q*(m) = sum_j m_j^2 / a_j, for the frequencies
        omega of the half grid in `_rfft`'s flat order, where the character
        of m has frequency omega (m_j = lin^-1(omega_j), `trace_frequencies`),
        in the smallest unsigned dtype that holds q - 1."""
        ctx = self.dom.ctx
        q = ctx.q
        squares = ctx.pow_table(2)[np.argsort(trace_frequencies(ctx))]
        inverse = ctx.pow_table(q - 2)
        cls = np.zeros(1, dtype=np.int64)
        for j, a in enumerate(self.form.coeffs):
            axis = ctx.mul_vec(squares, inverse[ctx.element(a)])
            if j == 0:   # the half grid keeps the leading digits below p // 2 + 1
                axis = axis[: (ctx.p // 2 + 1) * q // ctx.p]
            cls = ctx.add_vec(cls[:, None], axis).reshape(-1)
        return cls.astype(np.min_scalar_type(q - 1))

    @functools.cached_property
    def _table(self) -> tuple:
        """(g, delta): g[t, c] is g_t(c) as read off the level transforms, 0
        on a class that no frequency m != 0 meets, and delta[t] bounds
        |g[t] - g_t| (step 3'').  InvariantError when a level transform is
        not constant on a class within 2 delta."""
        dom, ctx = self.dom, self.dom.ctx
        require_table_budget(dom, "fold")
        q = ctx.q
        u = 2.0 ** -53
        eps = _pass_errors(dom)[0]
        squares = ctx.pow_table(2)[1:]
        scale = ctx.mul_vec(squares[:, None], np.arange(q))   # row i: x -> s_i x
        g = np.zeros((q, q))
        delta = np.zeros(q)
        done = np.zeros(q, dtype=bool)
        for t in range(1, q):
            if done[t]:
                continue
            level = ctx.mul_vec(squares, t)   # t's square class, s_i t
            delta[level] = eps * math.sqrt(dom.size * int(self.counts[t]))
            bins = _rfft(dom, (self.values == t).astype(np.float64)).reshape(-1).real
            g[level] = self._class_values(bins, delta[t])[scale]   # g_{s t}(x) = g_t(s x)
            done[level] = True
        # sum_t 1_{Q = t} = 1, whose transform vanishes off 0.
        g[0] = -g[1:].sum(axis=0)
        delta[0] = delta[1:].sum() + (q - 1) * u / (1 - (q - 1) * u) * (
            self.counts[1:].sum() + delta[1:].sum())
        return g, delta

    def _class_values(self, bins: np.ndarray, delta: float) -> np.ndarray:
        """The least of the bins at m != 0 on each class, 0 on an empty one;
        InvariantError when a class spreads over more than 2 delta."""
        q = self.dom.ctx.q
        lo, hi = np.full(q, np.inf), np.full(q, -np.inf)
        np.minimum.at(lo, self._classes[1:], bins[1:])
        np.maximum.at(hi, self._classes[1:], bins[1:])
        spread = hi - lo
        if np.any(spread > 2 * delta):
            c = int(np.argmax(spread))
            raise InvariantError(f"a level transform spreads by {spread[c]:.3g} on dual "
                                 f"class {c}, above twice its bound {delta:.3g}")
        return np.where(spread >= 0, lo, 0.0)


def nu_P_k(ctx: FieldContext, table: np.ndarray, X) -> np.ndarray:
    """nu_{P,k}(t) = pairs (a, k-tuple) with a in X and a + P(sum) = t, the
    sum over a in X of table(t - a).

    table is `nu_k(E, pvals, k)`, the k-fold count binned by P's value
    table.  X holds field elements (see `FieldContext.element`); a repeated
    element counts once.  The table is nonzero exactly on X + Delta, as
    every table(t - a) is nonnegative, so its count of nonzero cells is
    |X + Delta|.  The count is defined for any P; the paper's P is
    diagonal, and the affine spectrum that the second-moment audit reads
    takes only a diagonal P's exponent and coefficients.
    """
    xs = sorted(set(ctx.element(a) for a in X))
    if not xs:
        raise EmptyXError("shift set X must be nonempty")
    mass = len(xs) * _exact_total(table)
    dtype = _table_dtype(mass)
    shifted = table.astype(dtype)
    ts = np.arange(ctx.q, dtype=np.int64)
    out = np.zeros(ctx.q, dtype=dtype)
    for a in xs:
        # nu(t + a) += table(t): adding a permutes the scalar domain
        out[ctx.add_vec(ts, np.int64(a))] += shifted
    if _exact_total(out) != mass:
        raise InvariantError("shift-sum lost mass")
    return out


@dataclass(frozen=True)
class DeltaSet:
    """Value set {F(z) : r_k(z) > 0} with coverage flags."""

    values: tuple
    covers_Fq_star: bool
    covers_Fq: bool

    def as_dict(self) -> dict:
        return {"delta": list(self.values), "covers_Fq_star": self.covers_Fq_star,
                "covers_Fq": self.covers_Fq}


def delta_set(table: np.ndarray) -> DeltaSet:
    """Generalized distance set of E under F, over k-fold sums: the support
    {t : nu(t) > 0} of table = `nu_k(E, values, k)` for F's value table,
    whose length is q."""
    seen = tuple(np.flatnonzero(table).tolist())
    q = len(table)
    return DeltaSet(values=seen, covers_Fq_star=bool(np.count_nonzero(table[1:]) == q - 1),
                    covers_Fq=len(seen) == q)


def second_moment(table: np.ndarray) -> int:
    """Exact sum of squared counts."""
    return _exact_dot(table, table, _exact_total(table) ** 2)


def _require_total(table: np.ndarray, x_size: int, e_size: int, k: int):
    expected = x_size * e_size ** k
    total = _exact_total(table)
    if total != expected:
        raise InconsistentTotalError(
            f"nu table totals {total}, expected {x_size}*{e_size}^{k} = {expected}")


def sumset_lower_bound(table: np.ndarray, x_size: int, e_size: int, k: int) -> Fraction:
    """Cauchy-Schwarz lower bound |X|^2 |E|^{2k} / sum_t nu(t)^2 as an exact rational."""
    _require_total(table, x_size, e_size, k)
    sq = second_moment(table)
    if sq == 0:
        return Fraction(0)
    return Fraction(x_size * x_size * e_size ** (2 * k), sq)


# -- inequality audits ---------------------------------------------------------
#
# Each audit compares an exact integer count against the expander-mixing bound
# with the graph's *measured* second eigenvalue and *exact* degree: in that
# form the inequality is a theorem, so a violation is a hard bug.  Each
# returns a `spectra.Audit` of that count, its deviation from the main term,
# the bound and the verdict.  Main terms are rationals num / den, kept as the
# two ints.


def _gap(count: int, num: int, den: int) -> float:
    """count - num / den, correctly rounded to a float: one int / int true
    division, which Python rounds correctly, so it is bit for bit
    float(Fraction(count) - Fraction(num, den))."""
    return (den * count - num) / den


def energy_growth_audit(V: FoldLadder, E: FoldLadder, k: int,
                        graph: Spectrum) -> Audit:
    """Even-k energy of E inside a variety V, against the Cayley-graph bound.

    V is the variety's ladder and `graph` its Cayley spectrum, both of which
    callers build once per variety.  Hard checks: (a) the multiset mixing
    inequality for the exact edge count e between the half-sum multisets,
    and (b) Lambda_k <= e (every k-tuple counted by the energy lands in V
    because E is contained in V).  The audit's count is e.

    e = sum_u r_{k/2-1}(u) acc(u), with the correlation acc(u) = sum_{v in V}
    r_{k/2}(u + v) = (1_{-V} (*) r_{k/2})(u), is the fold of 1_{-V}, r_{k/2}
    and r_{k/2-1}(-.) at 0: the certified value at the origin (`fold_counts`,
    step 3') of Re(conj(V^) H) P^(k/2 - 1), from the ladders' held half
    spectra V^ and H and E's power spectrum P = |H|^2.  Only when that
    refuses is acc built, exact by the engine of `fold_counts`: the
    certified transform of the two indicators, or else limb products of
    1_{-V} and r_{k/2}.
    """
    if k % 2 != 0 or k < 4:
        raise OddKError(f"energy growth audit needs even k >= 4, got {k}")
    dom = E.dom
    if not V.indicator[E.indices].all():
        raise ValueError("E must be a subset of the variety")
    half = k // 2
    e_size = len(E)
    hat, v_hat = E.transform(), V.transform()
    # Re(conj(V^) H), by real products, times |H|^(k - 2).
    cross = v_hat.real * hat.real
    cross += v_hat.imag * hat.imag
    e = _fold_at_zero(dom, [V.norms] + [E.norms] * (k - 1),
                      _times_power(cross, E.power, half - 1))
    if e is None:
        # acc is of mass |V| |E|^{k/2}.
        acc_mass = len(V) * e_size ** half
        acc = None
        if _table_dtype(acc_mass) is np.int64:
            # The half spectrum of the reflection 1_{-V} is the conjugate of V's.
            acc = _transform_fold(dom, [V.norms] + [E.norms] * half,
                                  [v_hat.conj()] + [hat] * half)
        if acc is None:
            neg_v = np.bincount(dom.index_neg(V.indices), minlength=dom.size)
            acc = _convolve(dom, neg_v, E.fold(half))
        e = _exact_dot(E.fold(half - 1), acc, e_size ** (half - 1) * acc_mass)
    lam_k = E.energy(k)
    main = len(V) * e_size ** (k - 1)   # over q^d
    deviation = abs(_gap(e, main, dom.size))
    bound = graph.lambda_mixing * math.sqrt(float(E.energy(k - 2)) * float(lam_k))
    return Audit(count=e, deviation=deviation, bound=bound,
                 ok=within_slack(deviation, bound) and lam_k <= e)


def second_moment_audit(E: FoldLadder, table: np.ndarray, x_size: int, k: int,
                        graph: Spectrum) -> Audit:
    """sum_t nu_{P,k}(t)^2 against |X|^2|E|^{2k}/q + lambda * |X| * (energy term).

    `table` is nu_{P,k} of E for a shift set of x_size distinct elements, and
    `graph` the spectrum of the affine Cayley digraph of P.  The audit's
    count is the second moment, and it is one-sided: its deviation is the
    excess over the main term, or 0.
    """
    dom = E.dom
    e_size = len(E)
    _require_total(table, x_size, e_size, k)
    sq = second_moment(table)
    lo, hi = energy_term(E, k)
    main = x_size ** 2 * e_size ** (2 * k)   # over q
    excess = max(_gap(sq, main, dom.ctx.q), 0.0)
    bound = graph.lambda_mixing * x_size * (float(lo) * float(hi))
    return Audit(count=sq, deviation=excess, bound=bound, ok=within_slack(excess, bound))


def nu_deviation_audits(E: FoldLadder, table: np.ndarray, k: int,
                        graphs_by_t: dict, ts=None) -> list:
    """Deviation of nu_k(t) from its mixing main term, for each t in `ts`
    (default every t != 0), given the nu_k table of E.  Each t is read as
    the field element it names (`FieldContext.element`), so over a prime
    field it is taken mod p, and over an extension field an integer that is
    no encoding raises ValueError, as does t = 0.

    The energy is the geometric mean of `energy_term`.  graphs_by_t maps t to
    the Spectrum of any Euclidean level graph in t's square class: only its
    exact degree, which feeds the main term, and its lambda_mixing are read,
    and both are the same on the whole class.  Each audit's count is nu_k(t),
    as a Python int.
    """
    dom = E.dom
    q = dom.ctx.q
    ts = tuple(range(1, q) if ts is None else map(dom.ctx.element, ts))
    if 0 in ts:
        raise ValueError("deviation audit is stated for t != 0 only")
    e_size = len(E)
    _require_total(table, 1, e_size, k)
    lo, hi = energy_term(E, k)
    energy = math.sqrt(float(lo) * float(hi))
    # Python ints: an int64 count times q^d in `_gap` can pass 2^63.
    counts = table.tolist()
    out = []
    for t in ts:
        graph = graphs_by_t[t]
        deviation = abs(_gap(counts[t], graph.degree * e_size ** k, dom.size))
        bound = graph.lambda_mixing * energy
        out.append(Audit(count=counts[t], deviation=deviation, bound=bound,
                         ok=within_slack(deviation, bound)))
    return out


def energy_recursion_ratio(E: FoldLadder, k: int) -> dict:
    """Measured constant in the even-k energy recursion: Lambda_k against
    q^{(d-1)(k-2)/2} |E| + |E|^{k-1}/q.  Reported, never asserted."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"energy recursion ratio needs even k, got {k}")
    lam = E.energy(k)
    q, d, size = E.dom.ctx.q, E.dom.d, len(E)
    denom = q ** ((d - 1) * (k - 2) / 2) * size + size ** (k - 1) / q
    return {"k": k, "size": size, "k_energy": lam,
            "bound_term": denom, "ratio": float(lam) / denom if denom else math.inf}
