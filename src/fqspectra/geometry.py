"""Polynomials over F_q^d, diagonal quadratic forms, variety enumeration,
built-in variety families, and the regularity certifier.

A variety here is always the zero set {x in F_q^d : F(x) = 0} of a single
polynomial, read off F's value table (built by broadcasting, see `_eval_rows`)
and stored in lexicographic order so that every downstream step is reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domains import PointDomain, flat_indices
from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    EmptyVarietyError,
    SearchSpaceTooLargeError,
    ZeroParameterError,
)
from .field import FieldContext

ENUM_MAX = 10 ** 8
MAX_TOTAL_DEGREE = 64
_EVAL_CHUNK = 1 << 22


@dataclass(frozen=True)
class PolySpec:
    """A polynomial in d variables as a sparse list of monomials.

    terms: tuple of (coefficient encoding, exponent vector); coefficients are
    nonzero field elements and exponent vectors are pairwise distinct.
    """

    d: int
    terms: tuple

    def __post_init__(self):
        seen = set()
        for coeff, exps in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient in PolySpec term")
            if len(exps) != self.d:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {self.d}")
            if exps in seen:
                raise ValueError(f"duplicate exponent vector {exps}")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise ValueError(f"total degree {sum(exps)} exceeds {MAX_TOTAL_DEGREE}")
            seen.add(exps)


def sphere_poly(ctx: FieldContext, d: int, j: int) -> PolySpec:
    """x_1^2 + ... + x_d^2 - j, defined for a field element j != 0."""
    j = ctx.element(j)
    if j == 0:
        raise ZeroParameterError("sphere radius j must be nonzero")
    return PolySpec(d, diagonal_poly(ctx, d, 2).terms + ((ctx.neg(j), (0,) * d),))


def paraboloid_poly(ctx: FieldContext, d: int) -> PolySpec:
    """x_1^2 + ... + x_{d-1}^2 - x_d."""
    terms = [(1, tuple(2 if i == k else 0 for i in range(d)))
             for k in range(d - 1)]
    terms.append((ctx.neg(1), tuple(0 if i < d - 1 else 1 for i in range(d))))
    return PolySpec(d, tuple(terms))


def minkowski_poly(ctx: FieldContext, d: int, j: int) -> PolySpec:
    """x_1 * x_2 * ... * x_d - j, defined for a field element j != 0."""
    j = ctx.element(j)
    if j == 0:
        raise ZeroParameterError("minkowski radius j must be nonzero")
    return PolySpec(d, (((1, (1,) * d)), (ctx.neg(j), (0,) * d)))


def diagonal_coeffs(ctx: FieldContext, d: int, s: int, coeffs=None) -> tuple:
    """The checked coefficients (a_1, ..., a_d) of a_1 x_1^s + ... + a_d x_d^s:
    d >= 1, s >= 2, and d nonzero field elements (see `FieldContext.element`),
    all 1 by default."""
    if d < 1:
        raise ValueError(f"dimension d = {d} must be >= 1")
    if s < 2:
        raise ValueError(f"diagonal exponent s = {s} must be >= 2")
    coeffs = (1,) * d if coeffs is None else tuple(ctx.element(c) for c in coeffs)
    if len(coeffs) != d or 0 in coeffs:
        raise ValueError("diagonal polynomial needs d nonzero coefficients")
    return coeffs


def diagonal_poly(ctx: FieldContext, d: int, s: int, coeffs=None) -> PolySpec:
    """a_1 x_1^s + ... + a_d x_d^s with every a_j a nonzero field element,
    s >= 2."""
    return PolySpec(d, tuple((c, tuple(s if i == k else 0 for i in range(d)))
                             for k, c in enumerate(diagonal_coeffs(ctx, d, s, coeffs))))


def _eval_rows(ctx: FieldContext, spec: PolySpec, rows: np.ndarray, t: int) -> np.ndarray:
    """F at the flat indices r * q^t + s, r in rows and 0 <= s < q^t, as an
    int64 array of shape (len(rows),) + (q,) * t.

    Row r fixes the leading d - t coordinates to its digits.  A monomial is
    a product of power tables, each shaped to broadcast along its axis, so
    only sums of terms on different axes are full-size; terms on fewer axes
    are added first."""
    q, d = ctx.q, spec.d
    axes = [x.reshape((-1,) + (1,) * t) for x in np.unravel_index(rows, (q,) * (d - t))]
    axes += [np.arange(q).reshape((q,) + (1,) * (d - 1 - j)) for j in range(d - t, d)]
    pows = {e: ctx.pow_table(e) for e in {e for _, exps in spec.terms for e in exps if e}}
    out = np.int64(0)
    for coeff, exps in sorted(spec.terms, key=lambda term: sum(map(bool, term[1]))):
        term = np.int64(coeff)
        for x, e in zip(axes, exps):
            if e:
                term = ctx.mul_vec(term, pows[e][x])
        out = ctx.add_vec(out, term)
    shape = (len(rows),) + (q,) * t
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def eval_poly_table(dom: PointDomain, spec: PolySpec) -> np.ndarray:
    """F(x) at every point of F_q^d in canonical index order, as a new
    C-contiguous int64 array, by `_eval_rows` with one row per value of x_1."""
    if spec.d != dom.d:
        raise DimensionMismatchError(
            f"polynomial arity {spec.d} != domain dimension {dom.d}")
    return _eval_rows(dom.ctx, spec, np.arange(dom.ctx.q), dom.d - 1).reshape(dom.size)


def int_list(text) -> tuple:
    """The integers of a comma-separated list, as form specs, plan files and
    CLI options write them; ValueError unless every entry reads as one."""
    return tuple(int(v) for v in str(text).split(","))


@dataclass(frozen=True)
class QuadraticForm:
    """The diagonal quadratic form Q(x) = a_1 x_1^2 + ... + a_d x_d^2, stored
    as its coefficients (a_1, ..., a_d).

    Over odd q a linear change of variables makes every nondegenerate form
    diagonal, so these are all the distance forms up to equivalence.
    Coefficients are read through `FieldContext.element` wherever they meet
    a field, so over an extension field one outside 0..q-1 is rejected.
    """

    coeffs: tuple

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @classmethod
    def identity(cls, d: int) -> "QuadraticForm":
        return cls((1,) * d)

    @classmethod
    def parse(cls, spec: str, d: int) -> "QuadraticForm":
        """The diagonal form on F_q^d named by 'identity' or 'diag:a1,...,ad'."""
        if spec == "identity":
            return cls.identity(d)
        if not spec.startswith("diag:"):
            raise ValueError(f"unknown form spec {spec!r}; use identity or diag:a1,a2,...")
        try:
            form = cls(int_list(spec[5:]))
        except ValueError:
            raise ValueError(f"form spec {spec!r}: {spec[5:]!r} is not a list of "
                             "integers") from None
        if form.d != d:
            raise DimensionMismatchError(
                f"form {spec!r} has dimension {form.d}, expected d = {d}")
        return form

    def value_table(self, dom: PointDomain) -> np.ndarray:
        """Q(x) over all of F_q^d in canonical index order."""
        if self.d != dom.d:
            raise DimensionMismatchError(
                f"form dimension {self.d} != domain dimension {dom.d}")
        terms = ((dom.ctx.element(a), tuple(2 * (i == k) for i in range(self.d)))
                 for k, a in enumerate(self.coeffs))
        return eval_poly_table(dom, PolySpec(self.d, tuple((a, e) for a, e in terms if a)))

    def require_nondegenerate(self, ctx: FieldContext):
        """A diagonal form is nondegenerate iff no coefficient is 0 in F_q."""
        if 0 in [ctx.element(a) for a in self.coeffs]:
            raise DegenerateFormError("quadratic form is degenerate over F_q")


@dataclass(frozen=True, eq=False)
class Variety:
    """Zero set of a polynomial, or a loaded point set, as sorted flat
    indices, which is lexicographic order of the points."""

    d: int
    q: int
    indices: np.ndarray  # sorted, duplicate-free int64 flat indices

    def __post_init__(self):
        self.indices.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def points(self) -> tuple:
        """The points as coordinate tuples, lexicographically sorted."""
        digits = self.indices[:, None] // self.q ** np.arange(self.d - 1, -1, -1) % self.q
        return tuple(map(tuple, digits.tolist()))

    def write(self, fh):
        """The point file: a header 'q d |V|', then one point per line as
        comma-separated coordinates."""
        fh.write(f"{self.q} {self.d} {self.size}\n")
        for pt in self.points:
            fh.write(",".join(str(c) for c in pt) + "\n")

    def save(self, path):
        with open(path, "w") as fh:
            self.write(fh)

    @classmethod
    def load(cls, path) -> "Variety":
        """Read a `write` file; rejects a wrong count, wrong arity, a
        coordinate outside [0, q) and a repeated point."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError(f"{path}: expected header 'q d |V|', got {header!r}")
            q, d, size = int(header[0]), int(header[1]), int(header[2])
            pts = []
            for line in fh:
                line = line.strip()
                if line:
                    pts.append(tuple(int(c) for c in line.split(",")))
        if len(pts) != size:
            raise ValueError(f"variety file lists {len(pts)} points, header says {size}")
        idx = np.unique(flat_indices(pts, q, d))
        if len(idx) != size:
            raise ValueError("variety file lists a point more than once")
        return cls(d=d, q=q, indices=idx)


def enumerate_variety(ctx: FieldContext, spec: PolySpec) -> Variety:
    """All and only the zeros of the polynomial, lexicographically ordered.

    F is tabulated by `_eval_rows` in blocks of at most _EVAL_CHUNK points,
    t < d the largest with q^(t+1) <= _EVAL_CHUNK (or 0): one block up to
    _EVAL_CHUNK points, and past it about q^d / _EVAL_CHUNK blocks."""
    q, d = ctx.q, spec.d
    size = q ** d
    if size > ENUM_MAX:
        raise SearchSpaceTooLargeError(
            f"q^d = {size} exceeds the enumeration budget {ENUM_MAX}")
    t = 0
    while t < d - 1 and q ** (t + 2) <= _EVAL_CHUNK:
        t += 1
    per = _EVAL_CHUNK // q ** t
    rows = np.arange(size // q ** t, dtype=np.int64)
    hits = [np.flatnonzero(_eval_rows(ctx, spec, rows[lo:lo + per], t) == 0) + lo * q ** t
            for lo in range(0, len(rows), per)]
    return Variety(d=d, q=q, indices=np.concatenate(hits))


FAMILIES = ("sphere", "paraboloid", "minkowski")


def builtin_variety(ctx: FieldContext, family: str, d: int, j: int | None = None) -> Variety:
    """One of the built-in regular-variety families over F_q^d (d >= 2); j is
    the sphere or minkowski radius, 1 by default, and the paraboloid's none."""
    if d < 2:
        raise ValueError(f"built-in families need d >= 2, got d = {d}")
    if family == "sphere":
        spec = sphere_poly(ctx, d, 1 if j is None else j)
    elif family == "paraboloid":
        spec = paraboloid_poly(ctx, d)
    elif family == "minkowski":
        spec = minkowski_poly(ctx, d, 1 if j is None else j)
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return enumerate_variety(ctx, spec)


DEFAULT_THRESHOLDS = (0.5, 2.0, 3.0)


@dataclass(frozen=True)
class RegularityReport:
    """Measured constants behind the two regularity conditions.

    size_constant    = |V| / q^(d-1)
    fourier_constant = max_{m != 0} |sum_{x in V} chi(-m.x)| / q^((d-1)/2),
    i.e. the nontrivial Fourier coefficients of the indicator rescaled by
    q^((d+1)/2).  The verdict applies the caller's thresholds at this fixed q.
    """

    q: int
    d: int
    size: int
    size_constant: float
    fourier_constant: float
    argmax_m: tuple
    thresholds: tuple
    size_ok: bool
    fourier_ok: bool

    @property
    def verdict(self) -> bool:
        return self.size_ok and self.fourier_ok

    def as_dict(self) -> dict:
        return {
            "q": self.q, "d": self.d, "size": self.size,
            "c1": self.size_constant, "c2": self.fourier_constant,
            "argmax_m": list(self.argmax_m),
            "thresholds": {"c1_lo": self.thresholds[0], "c1_hi": self.thresholds[1],
                           "c2_max": self.thresholds[2]},
            "verdict": "REGULAR" if self.verdict else "NOT_REGULAR",
        }


def regularity_check(graph, thresholds=DEFAULT_THRESHOLDS) -> RegularityReport:
    """Read the two regularity constants of a variety V off the scan of its
    Cayley spectrum and apply the thresholds.

    `graph` is the `spectra.Spectrum` of the Cayley digraph with connection
    set V, as `spectra.cayley_spectrum` builds it: its degree is |V| and its
    eigenvalues are V's character sums, so c1 = degree / q^(d-1) and
    c2 = lambda_mixing / q^((d-1)/2), and argmax_m is the scan's
    argmax_mixing, the first maximizer m != 0 in index order.  The scan that
    built `graph` already checked Parseval's identity on the eigenvalues.
    A window that no variety can pass, c1_lo > c1_hi or a nan threshold,
    raises ValueError.
    """
    c1_lo, c1_hi, c2_max = thresholds
    if c1_lo > c1_hi or any(map(math.isnan, thresholds)):
        raise ValueError(f"thresholds (c1_lo, c1_hi, c2_max) = {tuple(thresholds)} can never "
                         "pass: need c1_lo <= c1_hi and no nan")
    q, d, size = graph.q, graph.d, graph.degree
    if size == 0:
        raise EmptyVarietyError("regularity check needs a nonempty variety")
    c1 = size / q ** (d - 1)
    c2 = graph.lambda_mixing / q ** ((d - 1) / 2)
    return RegularityReport(
        q=q, d=d, size=size, size_constant=c1, fourier_constant=c2,
        argmax_m=tuple(int(c) for c in np.unravel_index(graph.argmax_mixing, (q,) * d)),
        thresholds=tuple(thresholds),
        size_ok=bool(c1_lo <= c1 <= c1_hi), fourier_ok=bool(c2 <= c2_max),
    )
