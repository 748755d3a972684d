"""Cayley (di)graph spectra on F_q^d and F_q x F_q^{2d} via character sums,
second-eigenvalue extraction, and mixing-lemma audits.

Eigenvalues are always indexed by group characters m, never obtained from a
materialized adjacency matrix: lam_m = sum_{s in S} chi(m . s).  The second
eigenvalue lambda(G) is the maximum modulus over eigenvalues whose modulus
differs from the degree.

A spectrum holds its summary constants and a way to stream its eigenvalues
as consecutive slices of the table in index order.  A Cayley spectrum on
F_q^d has one slice, the character-sum table of its connection set, and one
blocked pass over its moduli checks the degree and Parseval's identity and
gives lambda_second and lambda_mixing with their first maximisers.  The
affine digraph on F_q x F_q^{2d} has one closed-form slice of q^(2d) cells
per m0, but its summary comes from the q x q moduli of the Weil sums its
eigenvalues factor into, checked row by row, and no slice is read for it.
Nothing here builds a whole affine table; `spectrum ... --out` writes the
slices as they stream.

Mixing audits count a block of multiset pairs (B_i, C_i) at once, over the
sum of |B_i||C_i| actual pairs (b, c) only: each side is ragged, flat merged
points and multiplicities with each multiset's support (`merge_multisets`).
`PointDomain.index_sub` gives every difference c - b from digits taken once
per entry, one lookup in a boolean membership table of the connection set
(size q^d, built once by the caller) marks the edges, and segment sums give
each exact edge count e(B_i, C_i).  Exactness contract: the integer
quantities (e, |B|, |C|, sum m^2) are exact, in int64 under the overflow
policy of `domains._INT64_SAFE` and in Python ints otherwise, and every
float is the correctly rounded value of an exact rational, so each verdict
equals the per-pair one in Python ints and Fractions.
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .domains import (
    _FLOAT_EXACT,
    _INT64_SAFE,
    PointDomain,
    character_sum_table,
    require_table_budget,
)
from .errors import ExponentDivisibleByCharacteristicError, InvariantError
from .field import FieldContext
from .geometry import diagonal_coeffs

# Relative tolerance used to decide whether |lam_m| equals the degree.
_DEGREE_EQ_RTOL = 1e-9
# Additive slack for inequality audits, scaled by the bound.
AUDIT_RTOL = 1e-6
# Cells per block of the spectrum scan and of the Weil-sum fill: bounds
# their temporaries.
_SCAN_BLOCK = 1 << 16


def within_slack(deviation, bound):
    """The one audit verdict, deviation <= bound up to AUDIT_RTOL of the bound
    plus 1e-12: elementwise on arrays, a Python bool on scalars."""
    ok = deviation <= bound + AUDIT_RTOL * bound + 1e-12
    return ok if isinstance(ok, np.ndarray) else bool(ok)


@dataclass(frozen=True)
class Audit:
    """One expander-mixing inequality checked against exact data: the exact
    integer `count` that it compares with its main term, the deviation
    |count - main term| (one-sided where the inequality is), its bound, and
    the verdict ok: `within_slack(deviation, bound)`, and with it any hard
    side condition of the audit.  One inequality gives scalars, count a
    Python int; a block of `mixing_audit` pairs gives arrays over the pairs."""

    count: int | np.ndarray
    deviation: float | np.ndarray
    bound: float | np.ndarray
    ok: bool | np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue map of a Cayley digraph on F_q^D and its summary constants.

    The eigenvalue at the canonical flat index m is sum_{s in S} chi(m . s).
    `slices` returns, on every call, an iterable of consecutive arrays whose
    concatenation is that table in index order.  A Cayley spectrum's summary
    constants come from one blocked scan of its one slice (`_scan_spectrum`),
    the affine spectrum's from the moduli of its Weil sums
    (`_affine_summary`); both check the trivial eigenvalue against the degree
    and the sum of |lam_m|^2 against order * degree (Parseval).  A Spectrum
    holds no eigenvalue table: every call rebuilds the slices, a Cayley
    spectrum's one slice as the character-sum table of its connection set
    and the affine ones from their closed form.  Nothing in the package joins
    the slices into one table: the CLI's `--out` writer streams them.

    lambda_second excludes exactly the eigenvalues of modulus equal to the
    degree (so a connection set equal to a coset union of a subgroup still
    gets a sensible second eigenvalue); argmax_m is a maximiser: the first
    in index order for a Cayley spectrum, and for the affine one the rule in
    `_affine_summary`, which can differ from the first where moduli tie up
    to rounding.

    lambda_mixing is the maximum modulus over all m != 0 with no exclusion,
    and argmax_mixing a maximiser m != 0, chosen alike.  It is the constant the
    expander-mixing inequality actually requires: for a connection set inside
    a coset of a proper subgroup, some nontrivial eigenvalue has modulus equal
    to the degree, lambda_second understates it, and the mixing bound with
    lambda_second would be false.
    """

    q: int
    d: int
    order: int
    degree: int
    lambda_second: float
    argmax_m: int
    lambda_mixing: float
    argmax_mixing: int
    slices: Callable[[], Iterable[np.ndarray]] = field(repr=False, compare=False)

    def summary(self) -> dict:
        return {
            "n": self.order,
            "degree": self.degree,
            "lambda": self.lambda_second,
            "argmax_m": self.argmax_m,
        }


def _scan_spectrum(dom, degree, slices) -> Spectrum:
    """The Spectrum of the eigenvalue table that `slices()` yields as its one
    slice, read in blocks of at most _SCAN_BLOCK cells.

    Each block's moduli are one np.abs; its largest modulus, when not within
    tolerance of the degree, is the largest kept one, and only a block whose
    largest modulus is within tolerance takes the masked path.  The mixing
    maximum skips the trivial eigenvalue, the first block's first cell.
    Maxima and first maximisers are exact, and blocks are compared with a
    strict `>`, so the result is that of one whole-table scan, bit for bit.
    The squared moduli are summed on the way; InvariantError unless the sum
    is order * degree to within 1e-6 relative (Parseval), or unless the
    trivial eigenvalue is the degree.
    """
    (table,) = slices()
    if abs(table[0] - degree) > 1e-9 * max(1.0, degree):
        raise InvariantError(f"trivial eigenvalue {table[0]} != degree {degree}; "
                             "spectrum inconsistent")
    tol = _DEGREE_EQ_RTOL * max(1.0, degree)
    arg, lam = 0, -1.0  # lam < 0 until a modulus is kept
    arg_mixing, lam_mixing = 0, -1.0  # lam_mixing < 0 until an m != 0 is read
    energy = 0.0
    for start in range(0, len(table), _SCAN_BLOCK):
        mods = np.abs(table[start:start + _SCAN_BLOCK])
        energy += float(np.dot(mods, mods))
        skip = 1 if start == 0 else 0
        if len(mods) > skip:
            hi = skip + int(np.argmax(mods[skip:]))
            if mods[hi] > lam_mixing:
                arg_mixing, lam_mixing = start + hi, float(mods[hi])
        kept = mods
        i = int(np.argmax(kept))
        if abs(kept[i] - degree) <= tol:
            kept = np.where(np.abs(mods - degree) > tol, mods, -1.0)
            i = int(np.argmax(kept))
        if kept[i] > lam:
            arg, lam = start + i, kept[i]
    expected = float(dom.size * degree)
    if abs(energy - expected) > 1e-6 * expected:
        raise InvariantError(
            f"Parseval audit failed: {energy} vs {expected} (spectrum inconsistent)")
    return Spectrum(q=dom.ctx.q, d=dom.d, order=dom.size, degree=degree,
                    lambda_second=max(float(lam), 0.0), argmax_m=arg,
                    lambda_mixing=max(lam_mixing, 0.0), argmax_mixing=arg_mixing,
                    slices=slices)


def cayley_spectrum(ctx: FieldContext, points, d: int) -> Spectrum:
    """Spectrum of the Cayley digraph on F_q^d with connection set `points`,
    an index array or a sequence of coordinate tuples.

    The eigenvalues are `character_sum_table` of the connection set.  For a
    variety V this is also V's regularity data: the degree is |V| and
    lambda_mixing the largest nontrivial Fourier modulus (see
    `geometry.regularity_check`)."""
    dom = PointDomain(ctx, d)
    require_table_budget(dom)
    idx = dom.as_indices(points)
    if np.any(np.diff(np.sort(idx)) == 0):
        raise ValueError("connection set must be duplicate-free")
    return _scan_spectrum(dom, len(idx), lambda: (character_sum_table(dom, idx),))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of comparing a measured second eigenvalue to a stated bound.

    `bound` is the proven ceiling that `within` asserts (with the slack of
    `within_slack`).  A non-empty `note` means the inputs fall outside that
    bound's hypothesis and nothing is asserted.  `normalized_bound`, when
    set, is a reference value reported next to the proven one but never
    asserted: for the affine digraph it is q^d, exact for s = 2 and not a
    theorem for s >= 3.
    """

    lambda_measured: float
    bound: float
    within: bool
    note: str = ""
    normalized_bound: float | None = None


def euclidean_spectrum(dom: PointDomain, qvals, t: int):
    """Spectrum of the graph on F_q^d joining x,y with Q(x - y) = t, and its
    `euclidean_check`.

    qvals is Q's value table over dom, `QuadraticForm.value_table(dom)`,
    which callers build once per form and domain after checking the budget
    with `require_table_budget` and the form with
    `QuadraticForm.require_nondegenerate`: the bound is stated for a
    nondegenerate Q.  t is a field element (see `FieldContext.element`).
    """
    qvals = dom.as_values(qvals)
    t = dom.ctx.element(t)
    spec = cayley_spectrum(dom.ctx, np.flatnonzero(qvals == t), d=dom.d)
    return spec, euclidean_check(spec, t)


def euclidean_check(spec: Spectrum, t: int) -> BoundCheck:
    """The check of the level-t Euclidean spectrum `spec`: the classical
    2*q^((d-1)/2) bound for t != 0; t = 0 is flagged, not asserted."""
    bound = 2.0 * spec.q ** ((spec.d - 1) / 2)
    if t == 0:
        return BoundCheck(spec.lambda_second, bound, True,
                          note="t = 0 is outside the bound's hypothesis; not asserted")
    return BoundCheck(spec.lambda_second, bound,
                      within_slack(spec.lambda_second, bound), note="")


def affine_cayley_spectrum(ctx: FieldContext, d: int, s: int, coeffs=None):
    """Spectrum of the Cayley digraph on F_q x F_q^{2d} whose connection set
    is the graph {(x0, x) : x0 + P(x_1..x_d) - P(x_{d+1}..x_{2d}) = 0} of
    P = a_1 x_1^s + ... + a_d x_d^s, given and checked as by `diagonal_poly`.

    The eigenvalues come in closed form from the coordinate-factorized
    one-dimensional Weil sums W(a, b) = sum_u chi(a*u^s + b*u), so the
    connection set is never enumerated.  The test suite checks them against
    character sums over the enumerated set.

    The eigenvalue at m = (m0, m_1..m_2d) is 0 when m0 = 0 and m != 0, and
    otherwise the product of the 2d sums W(alpha_j, m_j), with the rows
    alpha = (-m0*a_1, .., -m0*a_d, m0*a_1, .., m0*a_d).  The summary
    constants come from the q x q moduli |W| alone (`_affine_summary`), and
    nothing of size q^(2d+1) is built: `Spectrum.slices` streams the table
    slice by slice only for a reader such as `spectrum affine --out`.
    argmax_m and argmax_mixing are m0*q^(2d) + sum_j b_j*q^(2d-1-j), with m0
    the first slice of largest modulus (among the kept slices, or among all)
    and b_j the first argmax of the row |W(alpha_j, .)|.

    With every a_j != 0 and p not dividing s, Weil's bound
    |W(a, b)| <= (s-1)*sqrt(q) for a != 0 gives lambda <= (s-1)^(2d) * q^d;
    that is the bound the returned check asserts.  q^d is reported as its
    `normalized_bound` and not asserted: it is exact for s = 2, where
    quadratic Gauss sums have modulus sqrt(q), but for s >= 3 it is not a
    theorem and fails (lambda = 13.09 > 5 over F_5 with d = 1, s = 3;
    lambda = 100 = (s-1)^2 * q over F_25 with d = 1, s = 3).
    """
    coeffs = diagonal_coeffs(ctx, d, s, coeffs)
    if s % ctx.p == 0:
        raise ExponentDivisibleByCharacteristicError(
            f"exponent s = {s} is divisible by p = {ctx.p}")
    dom = PointDomain(ctx, 2 * d + 1)
    require_table_budget(dom, name="q^(2d+1)")
    W = _weil_sums(ctx, s)
    spec = _affine_summary(dom, W, coeffs, partial(_affine_slices, ctx, W, coeffs))
    bound = float((s - 1) ** (2 * d) * ctx.q ** d)
    check = BoundCheck(spec.lambda_second, bound,
                       within_slack(spec.lambda_second, bound), note="",
                       normalized_bound=float(ctx.q ** d))
    return spec, check


def _weil_sums(ctx, s):
    """The q x q table W[a, b] = sum_u chi(a*u^s + b*u), summed over u in
    blocks of rows a of about _SCAN_BLOCK cells of the (a, b, u) cube, so
    that no q^3 temporary is built; each row's sum is the same as from the
    whole cube, bit for bit."""
    q = ctx.q
    u = np.arange(q, dtype=np.int64)
    au = ctx.mul_vec(u[:, None], ctx.pow_table(s)[None, :])
    bu = ctx.mul_vec(u[:, None], u[None, :])
    W = np.empty((q, q), dtype=np.complex128)
    rows = max(1, _SCAN_BLOCK // (q * q))
    for a in range(0, q, rows):
        W[a:a + rows] = ctx.char_vec(
            ctx.add_vec(au[a:a + rows, None, :], bu[None, :, :])).sum(axis=2)
    return W


def _affine_summary(dom, W, coeffs, slices) -> Spectrum:
    """The Spectrum of the affine digraph read off the moduli M = |W|.

    Every cell of slice m0 != 0 has modulus prod_j M[alpha_j, m_j], and a
    float product of nonnegative factors is monotone in each, so the
    slice's largest modulus is the product of its rows' maxima, taken left
    to right, at each row's first argmax.  Slice 0 is the degree q^(2d) at
    m = 0 and 0 elsewhere, since W(0, b) = q*[b = 0].  A slice whose largest
    modulus is within tolerance of the degree has every row a single entry
    of modulus q and the rest 0 (by Parseval below), so lambda_second skips
    it whole; with every slice skipped it is 0.0 at m = 1.  The maximisers
    follow the rule in `affine_cayley_spectrum`.

    InvariantError unless W(0, 0) = q, which makes the trivial eigenvalue
    the degree, and unless every row has sum_b M[a, b]^2 = q^2 to within
    1e-6 relative (Parseval), which gives sum |lam_m|^2 = order * degree.
    """
    ctx = dom.ctx
    q, width = ctx.q, 2 * len(coeffs)
    degree = q ** width
    if abs(W[0, 0] - q) > 1e-9 * q:
        raise InvariantError(
            f"trivial Weil sum W(0, 0) = {W[0, 0]} != q = {q}; spectrum inconsistent")
    M = np.abs(W)
    energy = (M * M).sum(axis=1)
    bad = np.flatnonzero(np.abs(energy - q * q) > 1e-6 * q * q)
    if len(bad):
        raise InvariantError(
            f"Parseval audit failed: row {bad[0]} of the Weil sums has "
            f"{energy[bad[0]]} vs {q * q} (spectrum inconsistent)")
    top, first = M.max(axis=1), M.argmax(axis=1)
    m0 = np.arange(1, q, dtype=np.int64)
    signed = np.array([ctx.neg(c) for c in coeffs] + list(coeffs), dtype=np.int64)
    alphas = ctx.mul_vec(m0[:, None], signed[None, :])  # (q - 1) x 2d rows
    lam = top[alphas[:, 0]]
    for j in range(1, width):
        lam = lam * top[alphas[:, j]]

    def index(i):
        return (i + 1) * degree + sum(int(first[a]) * q ** (width - 1 - j)
                                      for j, a in enumerate(alphas[i]))

    kept = np.abs(lam - degree) > _DEGREE_EQ_RTOL * max(1.0, degree)
    if np.any(kept):
        i = int(np.argmax(np.where(kept, lam, -1.0)))
        lambda_second, arg = float(lam[i]), index(i)
    else:
        lambda_second, arg = 0.0, 1
    i = int(np.argmax(lam))
    return Spectrum(q=q, d=dom.d, order=dom.size, degree=degree,
                    lambda_second=lambda_second, argmax_m=arg,
                    lambda_mixing=float(lam[i]), argmax_mixing=index(i),
                    slices=slices)


def _affine_slices(ctx, W, coeffs):
    """Yield lam(m0, .) = prod_j W(-+m0*a_j, m_j) for m0 = 0..q-1, each slice
    flat in index order and built as a progressive outer product of the 2d
    rows W[-m0*a_1], .., W[-m0*a_d], W[m0*a_1], .., W[m0*a_d]."""
    for m0 in range(ctx.q):
        alphas = ([ctx.mul(ctx.neg(m0), c) for c in coeffs]
                  + [ctx.mul(m0, c) for c in coeffs])
        # The product with ones gives every cell the multiplications of a
        # broadcast over a ones array, so signed zeros come out the same.
        row = np.ones(ctx.q, dtype=np.complex128) * W[alphas[0]]
        for a in alphas[1:]:
            row = np.multiply.outer(row, W[a])
        yield row.reshape(-1)


# -- mixing audits -------------------------------------------------------------

def merge_multisets(sizes, points, mults, n: int):
    """Merge the repeated points of a run of multisets drawn as flat arrays.

    Multiset i is the next sizes[i] >= 1 entries of `points` (flat indices in
    [0, n)) with multiplicities `mults` (int64, or Python ints in an object
    array).  Returns (support, idx, mult): each multiset's number of distinct
    points, then those points ascending, multiset after multiset, with their
    summed multiplicities, int64 when no sum can reach _INT64_SAFE and Python
    ints (object dtype) otherwise.
    """
    rows = len(sizes)
    dtype = np.int64 if int(mults.max()) * int(sizes.max()) < _INT64_SAFE else object
    key = np.repeat(np.arange(rows, dtype=np.int64) * n, sizes)
    key += np.asarray(points, dtype=np.int64)
    order = np.argsort(key, kind="stable")  # quick: the keys arrive sorted by row
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    merged = np.add.reduceat(np.asarray(mults, dtype=dtype)[order], starts)
    row, idx = np.divmod(key[starts], n)
    return np.bincount(row, minlength=rows), idx, merged


def _weight_dtype(factor: int, *multisets):
    """int64 when factor * mass^2 < _INT64_SAFE for the largest multiset mass."""
    if any(m.dtype == object or int(m.max(initial=0)) * int(size.max(initial=0))
           >= _INT64_SAFE for size, _, m in multisets):
        return object  # a multiset mass itself might not fit
    mass = max(int(_per_multiset(size, m)[0].max(initial=0)) for size, _, m in multisets)
    return np.int64 if factor * mass * mass < _INT64_SAFE else object


def _per_multiset(support, *values):
    """Sums of each array of values over every multiset's run of entries."""
    return [np.add.reduceat(v, np.cumsum(support) - support) for v in values]


def _exact_floats(num, den: int = 1) -> np.ndarray:
    """Correctly rounded floats of num / den for an array of nonnegative
    integers and a positive int den < 2^53.

    Below _FLOAT_EXACT both operands are exact in float64, so one IEEE
    division rounds correctly; otherwise Python-int true division does.
    """
    if num.dtype != object and int(num.max(initial=0)) < _FLOAT_EXACT:
        return num.astype(np.float64) / den
    return np.array([a / den for a in num.tolist()], dtype=np.float64)


def mixing_audit(spectrum: Spectrum, dom: PointDomain, member: np.ndarray,
                 B, C) -> Audit:
    """Audit |e(B,C) - d|B||C|/n| <= lambda * sqrt(sum m_B^2) * sqrt(sum m_C^2)
    for every pair of a block at once, under the module's exactness contract.

    B and C are merged multisets (support, idx, mult) from `merge_multisets`,
    multiset i of each making pair i.  member is the boolean table over F_q^d
    of the connection set, so u -> v iff member[v - u].  The pairs (b, c) run
    flat, each entry of B_i meeting the run of C_i, and e(B_i, C_i) is the
    exact sum of m_B * m_C over the edges.  The bound uses lambda_mixing (max
    over every nontrivial eigenvalue), the constant under which the
    inequality is a theorem for normal Cayley digraphs.

    The `Audit` holds arrays over the pairs: count is the exact e(B_i, C_i),
    deviation = |e - d|B||C|/n| and the bound are the correctly rounded
    floats of exact values, and ok is `within_slack(deviation, bound)`.
    """
    n, degree = spectrum.order, spectrum.degree
    (b_size, b_idx, b_mult), (c_size, c_idx, c_mult) = B, C
    dtype = _weight_dtype(n + degree, B, C)
    b_mult, c_mult = b_mult.astype(dtype, copy=False), c_mult.astype(dtype, copy=False)
    runs = np.repeat(c_size, b_size)  # |C_i| for each entry of B_i
    run_start = np.cumsum(runs) - runs
    c_at = np.repeat(np.repeat(np.cumsum(c_size) - c_size, b_size) - run_start, runs)
    c_at += np.arange(len(c_at))  # the entry of C in each pair
    hit = member[dom.index_sub(c_idx[c_at], np.repeat(b_idx, runs),
                               ((c[c_at] for c in dom.digits(c_idx)),
                                (np.repeat(b, runs) for b in dom.digits(b_idx))))]
    weight = c_mult[c_at]
    weight *= hit
    e, b_mass, b_sq = _per_multiset(b_size, np.add.reduceat(weight, run_start) * b_mult,
                                    b_mult, b_mult * b_mult)
    c_mass, c_sq = _per_multiset(c_size, c_mult, c_mult * c_mult)
    if int(b_sq.max(initial=0)) * int(c_sq.max(initial=0)) >= _INT64_SAFE:
        b_sq = b_sq.astype(object)
    deviation = _exact_floats(abs(n * e - degree * b_mass * c_mass), n)
    bound = spectrum.lambda_mixing * np.sqrt(_exact_floats(b_sq * c_sq))
    return Audit(count=e, deviation=deviation, bound=bound, ok=within_slack(deviation, bound))
