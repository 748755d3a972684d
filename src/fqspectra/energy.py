"""Exact fold counts, k-energies, the distance-count tables nu_k and nu_{P,k},
generalized distance sets, and second-moment/sumset quantities.

Everything on the counting side is exact integer arithmetic: tables switch to
Python-int (object dtype) storage automatically once |E|^k could overflow
int64, so inequality audits always compare an exact integer against a
floating bound.  Convolutions are never *uncertified* transform-based.  A fold
is taken from an inverse FFT of a power of the indicator's transform only
under its rounding certificate: an a priori float-error bound below 1/2
(derived in `fold_counts`), a total mass below 2^53, and, after rounding, the
exact mass and no negative entry.  When any check fails, the sparse iterated
fold (one np.roll per point of E) runs instead; it is the exact reference.

A `FoldLadder` holds one subset's fold tables r_1, r_2, ... and builds each at
most once.  Every function here that takes a point set E also takes a ladder.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import PointDomain
from .errors import (
    BudgetExceededError,
    EmptyXError,
    InconsistentTotalError,
    InvariantError,
    NotDiagonalError,
    OddKError,
)
from .field import FieldContext
from .geometry import PolySpec, QuadraticForm, diagonal_shape, eval_poly_table
from .spectra import AUDIT_RTOL, Spectrum, affine_cayley_spectrum, euclidean_spectrum

FOLD_BUDGET = 10 ** 9
_INT64_SAFE = 1 << 62
# Integers below this are exact in float64, so a rounded FFT value can be one.
_FLOAT_EXACT = 1 << 53
# Constant C of the per-line DFT error C * p^(3/2) * u assumed in fold_counts.
_DFT_ERROR_CONST = 8.0


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
    """Exact nonnegative-integer counts over F_q^d ('points') or F_q ('scalars')."""

    kind: str
    d: int
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


def _flat_indices(dom: PointDomain, E) -> np.ndarray:
    """E as flat int64 indices: a 1-D integer array already is one, anything
    else is read as a sequence of coordinate tuples."""
    if isinstance(E, np.ndarray) and E.ndim == 1 and E.dtype.kind in "iu":
        idx = E.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= dom.size):
            raise ValueError(f"flat point index outside 0..{dom.size - 1}")
        return idx
    return dom.indices_of(E)


def _shift_sum(dom: PointDomain, table: np.ndarray, shifts) -> np.ndarray:
    """sum over e in shifts of table(z - e): one cyclic shift per element."""
    out = np.zeros(dom.size, dtype=table.dtype)
    for e in shifts:
        out += dom.translate_table(table, int(e))
    return out


def _fold_error_bound(dom: PointDomain, sizes, norms) -> float:
    """A priori bound on max |computed - exact| of the transform fold whose
    factors have l1 norms `sizes` and l2 norms `norms`; see `fold_counts`."""
    u = 2.0 ** -53
    alpha = _DFT_ERROR_CONST * dom.ctx.p ** 1.5 * u
    eps = math.expm1(dom.nd * math.log1p(alpha))
    eps_inv = (1 + eps) * (1 + u) ** 2 - 1
    eta = eps * math.sqrt(dom.size)
    m = len(sizes)
    theta = math.expm1((m - 1) * math.log1p(math.sqrt(2) * 2 * u / (1 - 2 * u)))
    terms = [norms[i] * math.prod(sizes[:i] + sizes[i + 1:]) for i in range(m)]
    spread = (1 + eta) ** (m - 1) * (eps * sum(terms) + theta * (1 + eps) * min(terms))
    return spread * (1 + eps_inv) + eps_inv * min(terms)


def _transform_fold(dom: PointDomain, factors):
    """The convolution of the multiplicity vectors of `factors`, a list of
    (flat indices, power) pairs, by an FFT over (Z_p)^(nd); int64 counts, or
    None when the certificate described in `fold_counts` fails."""
    counts = [np.bincount(idx, minlength=dom.size) for idx, _ in factors]
    sizes, norms = [], []
    for (idx, power), c in zip(factors, counts):
        sizes += [len(idx)] * power
        norms += [math.sqrt(_exact_dot(c, c, len(idx) ** 2))] * power
    mass = math.prod(sizes)
    if mass >= _FLOAT_EXACT:
        return None
    bound = _fold_error_bound(dom, sizes, norms)
    if not bound < 0.5:
        return None
    prod = None
    for (_, power), c in zip(factors, counts):
        hat = np.fft.fftn(c.reshape(dom.shape))
        for _ in range(power):
            prod = hat if prod is None else prod * hat
    real = np.fft.ifftn(prod).real.reshape(dom.size)
    r = np.rint(real)
    if np.max(np.abs(real - r), initial=0.0) > bound:
        return None
    r = r.astype(np.int64)
    if np.min(r, initial=0) < 0 or _exact_total(r) != mass:
        return None
    return r


def _roll_fold(dom: PointDomain, idx: np.ndarray, j: int, dtype) -> np.ndarray:
    """The exact reference fold r_j = r_{j-1} (*) 1_E."""
    r = np.bincount(idx, minlength=dom.size).astype(dtype)
    for _ in range(j - 1):
        r = _shift_sum(dom, r, idx)
    if _exact_total(r) != len(idx) ** j:
        raise InvariantError("fold mass conservation violated")
    return r


def fold_counts(dom: PointDomain, E, j: int) -> CountTable:
    """r_j(z) = number of ordered j-tuples from E summing to z, exact.

    E is a sequence of points or a 1-D integer array of flat indices.  For
    j >= 2 the table comes from the certified transform fold when its
    certificate holds, otherwise from the iterated sparse fold
    r_j = r_{j-1} (*) 1_E, one cyclic shift of the running table per point
    of E, which is the reference path.

    Transform fold.  F_q^d is (Z_p)^(nd) on flat indices, so with N = q^d and
    F = fftn(1_E) over dom.shape, r_j = ifftn(F^j), rounded with rint.  Its
    certificate, every check of which must pass:

    * |E|^j < 2^53, so every count and the mass are exact in float64;
    * the a priori bound B below on max |computed - r_j| is < 1/2, so rint
      returns r_j exactly; the observed rounding residual must not exceed B;
    * the rounded table has mass exactly |E|^j and no negative entry.

    Derivation of B, for a product of m transforms F_i of count vectors f_i
    with s_i = ||f_i||_1 and l_i = ||f_i||_2 (here f_i = 1_E, s_i = |E|,
    l_i = sqrt|E|, m = j).  Let u = 2^-53.  Assume each length-p DFT along
    one line has relative 2-norm error at most a = C p^(3/2) u, the classical
    bound for the direct sum with C = 8; radix and Bluestein passes do
    better.  The exact pass scales every line by sqrt(p), so nd passes give
    fftn a relative error eps = (1 + a)^(nd) - 1, and ifftn with its 1/N
    scaling eps' = (1 + eps)(1 + u)^2 - 1.

    1. Forward: ||F~_i - F_i||_2 <= eps ||F_i||_2 = eps sqrt(N) l_i by
       Parseval, and |F_i| <= s_i pointwise, so |F~_i| <= (1 + eta) s_i with
       eta = eps sqrt(N).
    2. Product: the m - 1 complex products each add relative error at most
       mu = sqrt(2) gamma_2 (Higham, Accuracy and Stability of Numerical
       Algorithms, Lemma 3.5); theta = (1 + mu)^(m-1) - 1.  Telescoping
       prod F~ - prod F and putting A_i = l_i prod_{l != i} s_l,
       ||G~ - G||_2 <= sqrt(N) (1 + eta)^(m-1) (eps sum_i A_i
       + theta (1 + eps) min_i A_i) =: sqrt(N) D.
    3. Inverse: ||ifftn x||_2 = ||x||_2 / sqrt(N) and ||r_j||_2 <= min_i A_i,
       so ||r~ - r_j||_2 <= D + eps' (min_i A_i + D).

    Hence max |Re r~ - r_j| <= ||r~ - r_j||_2 <= B = D (1 + eps') + eps'
    min_i A_i.  For |E| = 345, j = 3 over F_31^3, B is about 4e-6.
    """
    if j < 1:
        raise ValueError(f"fold depth j = {j} must be >= 1")
    idx = _flat_indices(dom, E)
    cost = len(idx) * dom.size * (j - 1)
    if cost > FOLD_BUDGET:
        raise BudgetExceededError(
            f"fold cost |E|*q^d*(j-1) = {cost} exceeds budget {FOLD_BUDGET}")
    dtype = _table_dtype(len(idx) ** j)
    r = _transform_fold(dom, [(idx, j)]) if dtype is np.int64 and j > 1 else None
    if r is None:
        r = _roll_fold(dom, idx, j, dtype)
    return CountTable(kind="points", d=dom.d, q=dom.ctx.q, values=r)


class FoldLadder:
    """The fold tables r_1, r_2, ... of one subset E of F_q^d.

    Holds E as flat indices and builds depth j on first use by one call to
    `fold_counts`, never twice.  It keeps its tables for its own lifetime
    only, so callers make one per subset and drop it with the subset.
    """

    def __init__(self, dom: PointDomain, E):
        self.dom = dom
        self.indices = _flat_indices(dom, E)
        self._tables = {}

    def __len__(self) -> int:
        return len(self.indices)

    def fold(self, j: int) -> CountTable:
        if j not in self._tables:
            self._tables[j] = fold_counts(self.dom, self.indices, j)
        return self._tables[j]


def _ladder(dom: PointDomain, E) -> FoldLadder:
    """E itself when it is a ladder over the same domain, else a new ladder."""
    if not isinstance(E, FoldLadder):
        return FoldLadder(dom, E)
    if (E.dom.ctx.p, E.dom.ctx.n, E.dom.d) != (dom.ctx.p, dom.ctx.n, dom.d):
        raise ValueError("fold ladder belongs to a different domain")
    return E


def lambda_k(dom: PointDomain, E, k: int) -> int:
    """k-energy: ordered k-tuples whose two half-sums agree; sum of r_{k/2}^2."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"k-energy needs even k >= 2, got k = {k}; "
                        "odd k is handled through the product of neighbours")
    ladder = _ladder(dom, E)
    r = ladder.fold(k // 2).values
    return _exact_dot(r, r, len(ladder) ** k)


def energy_term(ladder: FoldLadder, k: int) -> tuple:
    """(lo, hi, detail): the even energies that control k-fold counts.

    Even k gives lo = hi = Lambda_k; odd k gives Lambda_{k-1} and
    Lambda_{k+1}.  Bounds use the geometric mean sqrt(lo * hi), and `detail`
    is what reports record: {"k_energy": Lambda_k} for even k,
    {"k_energy_product": lo * hi} for odd k.
    """
    if k % 2 == 0:
        lam = lambda_k(ladder.dom, ladder, k)
        return lam, lam, {"k_energy": lam}
    lo = lambda_k(ladder.dom, ladder, k - 1)
    hi = lambda_k(ladder.dom, ladder, k + 1)
    return lo, hi, {"k_energy_product": lo * hi}


@dataclass(frozen=True)
class EnergyProfile:
    """Even k-energies of a point set plus the odd-k neighbour products."""

    size: int
    values: dict          # even k -> Lambda_k
    odd_products: dict    # odd k -> Lambda_{k-1} * Lambda_{k+1}

    def as_dict(self) -> dict:
        return {"size": self.size,
                "lambda": {str(k): v for k, v in sorted(self.values.items())},
                "odd_products": {str(k): v for k, v in sorted(self.odd_products.items())}}


def energy_profile(dom: PointDomain, E, max_k: int) -> EnergyProfile:
    ladder = _ladder(dom, E)
    values = {k: lambda_k(dom, ladder, k) for k in range(2, max_k + 1, 2)}
    odd = {k: values[k - 1] * values[k + 1]
           for k in range(3, max_k, 2) if k - 1 in values and k + 1 in values}
    return EnergyProfile(size=len(ladder), values=values, odd_products=odd)


def _bin_by_value(ctx, values, r, expected_total):
    """nu(t) = sum of r(z) over z with values(z) = t, exact."""
    q = ctx.q
    if r.dtype == np.int64:
        out = np.zeros(q, dtype=np.int64)
        np.add.at(out, values, r)
    else:
        out = np.zeros(q, dtype=object)
        for z in np.nonzero(r)[0]:
            out[values[z]] += int(r[z])
    table = CountTable(kind="scalars", d=1, q=q, values=out)
    if table.total() != expected_total:
        raise InvariantError("value-binning lost mass")
    return table


def nu_k(dom: PointDomain, E, form: QuadraticForm, k: int) -> CountTable:
    """nu_k(t) = k-tuples from E whose coordinate sum z has Q(z) = t."""
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    form.require_nondegenerate(dom.ctx)
    ladder = _ladder(dom, E)
    r = ladder.fold(k).values
    qvals = form.value_table(dom)
    return _bin_by_value(dom.ctx, qvals, r, len(ladder) ** k)


def nu_P_k(dom: PointDomain, E, X, pspec: PolySpec, k: int) -> CountTable:
    """nu_{P,k}(t) = triples (a, k-tuple) with a in X and a + P(sum) = t."""
    xs = sorted(set(int(a) % dom.ctx.q for a in X))
    if not xs:
        raise EmptyXError("shift set X must be nonempty")
    if diagonal_shape(pspec) is None:
        raise NotDiagonalError("nu_{P,k} needs a diagonal polynomial P")
    ladder = _ladder(dom, E)
    r = ladder.fold(k).values
    pvals = eval_poly_table(dom, pspec)
    base = _bin_by_value(dom.ctx, pvals, r, len(ladder) ** k)
    ctx = dom.ctx
    mass = len(xs) * len(ladder) ** k
    dtype = _table_dtype(mass)
    shifted = base.values.astype(dtype)
    ts = np.arange(ctx.q, dtype=np.int64)
    out = np.zeros(ctx.q, dtype=dtype)
    for a in xs:
        # nu(t + a) += base(t): adding a permutes the scalar domain
        out[ctx.add_vec(ts, np.int64(a))] += shifted
    table = CountTable(kind="scalars", d=1, q=ctx.q, values=out)
    if table.total() != mass:
        raise InvariantError("shift-sum lost mass")
    return table


@dataclass(frozen=True)
class DeltaSet:
    """Value set {F(z) : r_k(z) > 0} with coverage flags."""

    values: tuple
    covers_Fq_star: bool
    covers_Fq: bool

    def as_dict(self) -> dict:
        return {"delta": list(self.values), "covers_Fq_star": self.covers_Fq_star,
                "covers_Fq": self.covers_Fq}


def delta_set(dom: PointDomain, E, f, k: int) -> DeltaSet:
    """Generalized distance set of E under F, over k-fold sums.

    f may be a PolySpec or a QuadraticForm.
    """
    r = _ladder(dom, E).fold(k).values
    vals = f.value_table(dom) if isinstance(f, QuadraticForm) else eval_poly_table(dom, f)
    seen = tuple(np.unique(vals[r > 0]).tolist())
    q = dom.ctx.q
    covers_star = len([v for v in seen if v != 0]) == q - 1
    return DeltaSet(values=seen, covers_Fq_star=covers_star,
                    covers_Fq=len(seen) == q)


def second_moment(table: CountTable) -> int:
    """Exact sum of squared counts."""
    return _exact_dot(table.values, table.values, table.total() ** 2)


def sumset_lower_bound(table: CountTable, x_size: int, e_size: int, k: int) -> Fraction:
    """Cauchy-Schwarz lower bound |X|^2 |E|^{2k} / sum_t nu(t)^2 as an exact rational."""
    expected = x_size * e_size ** k
    if table.total() != expected:
        raise InconsistentTotalError(
            f"nu table totals {table.total()}, expected |X|*|E|^k = {expected}")
    sq = second_moment(table)
    if sq == 0:
        return Fraction(0)
    return Fraction(x_size * x_size * e_size ** (2 * k), sq)


def sumset(ctx: FieldContext, X, values) -> tuple:
    """X + values inside F_q, as a sorted tuple of encodings."""
    out = set()
    for a in X:
        for v in values:
            out.add(ctx.add(int(a), int(v)))
    return tuple(sorted(out))


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


def nu_deviation_audit(dom: PointDomain, E, form: QuadraticForm, k: int, t: int,
                       graph: Spectrum) -> InequalityAudit:
    """Deviation of nu_k(t) from its mixing main term, for one t != 0.

    `graph` must be the spectrum of the t-level Euclidean graph; see
    `nu_deviation_audits`.
    """
    return nu_deviation_audits(dom, E, form, k, {t: graph}, ts=(t,))[0]


def energy_growth_audit(dom: PointDomain, variety, E, k: int) -> InequalityAudit:
    """Even-k energy of E inside a variety V, against the Cayley-graph bound.

    Hard checks: (a) the multiset mixing inequality for the exact edge count
    e between the half-sum multisets, and (b) Lambda_k <= e (every k-tuple
    counted by the energy lands in V because E is contained in V).  The
    normalized gap against |E|^{k-1}/q is reported only.
    """
    if k % 2 != 0 or k < 4:
        raise OddKError(f"energy growth audit needs even k >= 4, got {k}")
    ladder = _ladder(dom, E)
    v_idx = variety.indices(dom)
    if not np.isin(ladder.indices, v_idx).all():
        raise ValueError("E must be a subset of the variety")
    from .spectra import cayley_spectrum
    graph = cayley_spectrum(dom.ctx, variety.points, d=dom.d)
    half = k // 2
    e_size = len(ladder)
    # e = sum_u r_{k/2-1}(u) * acc(u), acc(u) = sum_{v in V} r_{k/2}(u + v):
    # acc is the fold of 1_{-V} with r_{k/2}, of mass |V| |E|^{k/2}.
    neg_v = dom.index_neg(v_idx)
    acc_mass = variety.size * e_size ** half
    acc = None
    if _table_dtype(acc_mass) is np.int64:
        acc = _transform_fold(dom, [(neg_v, 1), (ladder.indices, half)])
    if acc is None:
        r_half = ladder.fold(half).values.astype(_table_dtype(acc_mass))
        acc = _shift_sum(dom, r_half, neg_v)
    e = _exact_dot(ladder.fold(half - 1).values, acc, e_size ** (half - 1) * acc_mass)
    lam_k = lambda_k(dom, ladder, k)
    lam_km2 = lambda_k(dom, ladder, k - 2)
    main = Fraction(variety.size * e_size ** (k - 1), dom.size)
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


def second_moment_audit(dom: PointDomain, E, X, pspec: PolySpec, k: int,
                        graph: Spectrum | None = None) -> InequalityAudit:
    """sum_t nu_{P,k}(t)^2 against |X|^2|E|^{2k}/q + lambda * |X| * (energy term).

    `graph` is the affine Cayley digraph spectrum; passing a precomputed one
    avoids recomputing it across many (E, X) draws.
    """
    ladder = _ladder(dom, E)
    xs = sorted(set(int(a) % dom.ctx.q for a in X))
    if graph is None:
        graph, _ = affine_cayley_spectrum(dom.ctx, pspec, dom.d)
    table = nu_P_k(dom, ladder, xs, pspec, k)
    sq = second_moment(table)
    lo, hi, _ = energy_term(ladder, k)
    energy = float(lo) * float(hi)
    e_size, x_size = len(ladder), len(xs)
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


def nu_deviation_audits(dom: PointDomain, E, form: QuadraticForm, k: int,
                        graphs_by_t: dict, ts=None) -> list:
    """Deviation of nu_k(t) from its mixing main term, for each t in `ts`
    (default every t != 0), sharing the fold tables.

    The energy is the geometric mean of `energy_term`.  graphs_by_t maps t to
    the Spectrum of the t-level Euclidean graph, whose exact degree feeds the
    main term.
    """
    q = dom.ctx.q
    ts = tuple(range(1, q) if ts is None else ts)
    if any(t % q == 0 for t in ts):
        raise ValueError("deviation audit is stated for t != 0 only")
    ladder = _ladder(dom, E)
    table = nu_k(dom, ladder, form, k)
    lo, hi, energy_detail = energy_term(ladder, k)
    energy = math.sqrt(float(lo) * float(hi))
    e_size = len(ladder)
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


def energy_recursion_ratio(dom: PointDomain, E, k: int) -> dict:
    """Measured constant in the even-k energy recursion: Lambda_k against
    q^{(d-1)(k-2)/2} |E| + |E|^{k-1}/q.  Reported, never asserted."""
    if k % 2 != 0 or k < 2:
        raise OddKError(f"energy recursion ratio needs even k, got {k}")
    ladder = _ladder(dom, E)
    lam = lambda_k(dom, ladder, k)
    q, d, size = dom.ctx.q, dom.d, len(ladder)
    denom = q ** ((d - 1) * (k - 2) / 2) * size + size ** (k - 1) / q
    return {"k": k, "size": size, "k_energy": lam,
            "bound_term": denom, "ratio": float(lam) / denom if denom else math.inf}


def multiset_from_fold(dom: PointDomain, E, j: int) -> Counter:
    """The multiset of j-fold sums of E, as index -> multiplicity."""
    r = _ladder(dom, E).fold(j).values
    return Counter({int(z): int(r[z]) for z in np.nonzero(r)[0]})
