"""Brute-force oracles for prime fields, independent of the library paths.

Everything here uses plain Python integers mod p and exhaustive loops over
tuple spaces, so a bug in the convolution/transform machinery cannot hide:
these never call into fqspectra's counting or spectrum code.  The mixing
reference also covers extension fields, through the digit-wise group law of
flat indices, and stays here as the per-pair check of the batched audit;
`draw_multisets_reference` is the randrange loop whose stream the CLI's
bulk decoder must reproduce, and `flat_multisets` lays multisets out as the
merge takes them.

The affine references are the exceptions that use the library.  The direct
one enumerates the connection set with `eval_poly_table` and sums characters
with `character_sum_table`, neither of which the closed-form affine
spectrum it checks ever calls.  The broadcast one is the closed form as one
whole table, built with the field's vector arithmetic; the streamed slices
must equal it bit for bit.  `scan_reference` is the whole-table moduli scan
that the blocked scan must reproduce, and `eigenvalue_table` the one
whole-table reader of a streamed spectrum.  `roll_fold` is the sparse
iterated fold, one `PointDomain.translate_table` per point, in Python ints:
the exact reference that the certified transform folds must equal.
`delta_reference` and `nu_P_reference` read the generalized distance set and
nu_{P,k} off a fold directly, by np.unique and by binning the fold once per
shift, for the library's reading of both off one binned table.
`smallest_generator_reference` is
the scalar generator search, on the polynomial `pow_poly`, that the batched
search must agree with, and `spectrum_text_reference` the per-cell `--out`
format the streamed writer must reproduce byte for byte.
`complex_fold_error_bound` is the rounding certificate of a transform fold
taken with complex transforms, which the real-input certificate must never
undercut, and `half_spectrum_reference` the complex numpy.fft transform
whose axis-0 half the matmul kernel must reproduce.

The scalar references (`point_of`, `index_add`, `eval_poly`,
`eval_quadratic`, `char`, `mul_poly`, `pow_poly`, `add`, `sub`, `inv`) evaluate
one point or element at a time, for the array paths to be checked against;
`mul_poly` is the polynomial product that `pow_poly` and `inv` build on.  `sumset` is X + Delta from the value set Delta, the
set whose size the library reads as the support of nu_{P,k}.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from fqspectra.domains import PointDomain, character_sum_table
from fqspectra.errors import DimensionMismatchError, InvariantError
from fqspectra.geometry import PolySpec, eval_poly_table


def point_of(dom, idx):
    """The coordinate tuple of the flat index idx of F_q^d."""
    q = dom.ctx.q
    out = []
    for _ in range(dom.d):
        out.append(int(idx % q))
        idx //= q
    return tuple(reversed(out))


def index_add(dom, A, B):
    """Digit-wise base-p addition, the group law on flat indices; A and B may
    be Python ints or integer arrays."""
    p = dom.ctx.p
    out, pk = 0, 1
    for _ in range(dom.nd):
        out = out + (((A // pk) + (B // pk)) % p) * pk
        pk *= p
    return out


def eval_poly(ctx, spec, x):
    """Exact value of the polynomial spec at the point x."""
    if len(x) != spec.d:
        raise DimensionMismatchError(
            f"point has {len(x)} coordinates, polynomial arity is {spec.d}")
    acc = 0
    for coeff, exps in spec.terms:
        t = coeff
        for xi, e in zip(x, exps):
            if e:
                t = ctx.mul(t, pow_poly(ctx, int(xi), e))
        acc = add(ctx, acc, t)
    return acc


def eval_quadratic(ctx, form, x):
    """Q(x) = a_1 x_1^2 + ... + a_d x_d^2 of a QuadraticForm at the point x."""
    if len(x) != form.d:
        raise DimensionMismatchError("point/form dimension mismatch")
    acc = 0
    for a, xi in zip(form.coeffs, x):
        acc = add(ctx, acc, ctx.mul(ctx.element(a), ctx.mul(int(xi), int(xi))))
    return acc


def char(ctx, a):
    """The canonical additive character chi(a) = exp(2*pi*i*Tr(a)/p)."""
    return complex(ctx.char_table[ctx.trace_table[a]])


def add(ctx, a, b):
    """a + b in F_q, digit by digit on the encodings."""
    if ctx.n == 1:
        return (a + b) % ctx.p
    return ctx.encode((x + y) % ctx.p for x, y in zip(ctx.digits(a), ctx.digits(b)))


def sub(ctx, a, b):
    """a - b in F_q, digit by digit on the encodings."""
    return ctx.encode((x - y) % ctx.p for x, y in zip(ctx.digits(a), ctx.digits(b)))


def inv(ctx, a):
    """a^(-1) = a^(q-2) for a != 0, by `pow_poly`."""
    return pow_poly(ctx, a, ctx.q - 2)


def sumset(ctx, X, values):
    """X + values inside F_q, as a sorted tuple of encodings."""
    xs = np.asarray(X, dtype=np.int64)
    vs = np.asarray(values, dtype=np.int64)
    return tuple(np.unique(ctx.add_vec(xs[:, None], vs[None, :])).tolist())


def mul_poly(ctx, a, b):
    """a * b as the product of digit polynomials, reduced from the top down
    by the monic modulus: independent of the field's matrices and tables."""
    p, n, modulus = ctx.p, ctx.n, ctx.modulus
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(ctx.digits(a)):
        for j, bj in enumerate(ctx.digits(b)):
            out[i + j] = (out[i + j] + ai * bj) % p
    for k in range(2 * n - 2, n - 1, -1):
        c, out[k] = out[k], 0
        for i in range(n):
            out[k - n + i] = (out[k - n + i] - c * modulus[i]) % p
    return ctx.encode(out[:n])


def pow_poly(ctx, a, e):
    """a^e by square-and-multiply on polynomials, independent of the
    field's log/antilog tables."""
    result, base = 1, a
    while e > 0:
        if e & 1:
            result = mul_poly(ctx, result, base)
        base = mul_poly(ctx, base, base)
        e >>= 1
    return result


def eigenvalue_table(spec):
    """The whole eigenvalue table of a Spectrum: its slices concatenated in
    index order."""
    return np.concatenate(list(spec.slices()))


def add_pts(p, x, y):
    return tuple((a + b) % p for a, b in zip(x, y))


def sum_pts(p, pts):
    acc = (0,) * len(pts[0])
    for x in pts:
        acc = add_pts(p, acc, x)
    return acc


def eval_diag(p, coeffs, s, z):
    return sum(c * pow(x, s, p) for c, x in zip(coeffs, z)) % p


def brute_fold(p, E, j):
    """Counter of j-fold ordered sums of E."""
    out = Counter()
    for tup in itertools.product(E, repeat=j):
        out[sum_pts(p, tup)] += 1
    return out


def roll_fold(dom, idx, j):
    """r_j = r_{j-1} (*) 1_E over flat indices, one cyclic shift of the
    running table per point of E, as an object array of Python ints."""
    r = np.bincount(idx, minlength=dom.size).astype(object)
    for _ in range(j - 1):
        acc = np.zeros(dom.size, dtype=object)
        for e in idx:
            acc += dom.translate_table(r, int(e))
        r = acc
    return r


def brute_lambda(p, E, k):
    """k-energy by looping all k-tuples and comparing half-sums."""
    assert k % 2 == 0
    m = k // 2
    count = 0
    for tup in itertools.product(E, repeat=k):
        if sum_pts(p, tup[:m]) == sum_pts(p, tup[m:]):
            count += 1
    return count


def brute_nu(p, E, coeffs, k):
    """nu_k(t) for all t under the form sum_j coeffs[j] x_j^2, by looping E^k."""
    out = Counter()
    for tup in itertools.product(E, repeat=k):
        out[eval_diag(p, coeffs, 2, sum_pts(p, tup))] += 1
    return out


def brute_nu_P(p, E, X, coeffs, s, k):
    out = Counter()
    for a in X:
        for tup in itertools.product(E, repeat=k):
            out[(a + eval_diag(p, coeffs, s, sum_pts(p, tup))) % p] += 1
    return out


def brute_delta(p, E, value_fn, k):
    out = set()
    for tup in itertools.product(E, repeat=k):
        out.add(value_fn(sum_pts(p, tup)))
    return out


def delta_reference(q, values, r):
    """(Delta, covers F_q^*, covers F_q) as the value set of the fold's
    support, np.unique(values[r > 0])."""
    seen = tuple(np.unique(values[r > 0]).tolist())
    return seen, len([v for v in seen if v != 0]) == q - 1, len(seen) == q


def nu_P_reference(ctx, values, r, X):
    """nu_{P,k} as a list over F_q, binning the fold r by P's value table
    once for each distinct shift a in X, in Python ints."""
    out = [0] * ctx.q
    for a in sorted({ctx.element(x) for x in X}):
        for z in np.flatnonzero(r):
            out[add(ctx, a, int(values[z]))] += int(r[z])
    return out


def brute_second_eigenvalue(p, S, d):
    """Second eigenvalue through the adjacency matrix, the one path the
    library never takes.  Only for q^d small enough to diagonalize."""
    n = p ** d
    pts = list(itertools.product(range(p), repeat=d))
    index = {pt: i for i, pt in enumerate(pts)}
    sset = set(S)
    A = np.zeros((n, n))
    for x in pts:
        for s in sset:
            A[index[x], index[add_pts(p, x, s)]] = 1.0
    ev = np.linalg.eigvals(A)
    mods = np.abs(ev)
    deg = len(sset)
    keep = mods[np.abs(mods - deg) > 1e-6 * max(1.0, deg)]
    return float(keep.max()) if keep.size else 0.0


def affine_eigenvalues_direct(ctx, s, coeffs, d):
    """Eigenvalues of the affine Cayley digraph of P = sum_j coeffs[j] x_j^s,
    as character sums over its enumerated connection set: the points
    (-(P(x) - P(y)), x, y) of F_q^(2d+1)."""
    unit = [tuple(s if i == j else 0 for i in range(2 * d)) for j in range(2 * d)]
    terms = [(c, unit[j]) for j, c in enumerate(coeffs)]
    terms += [(ctx.neg(c), unit[d + j]) for j, c in enumerate(coeffs)]
    dom2d = PointDomain(ctx, 2 * d)
    diff = eval_poly_table(dom2d, PolySpec(2 * d, tuple(terms)))
    neg_diff = ctx.mul_vec(diff, np.int64(ctx.neg(1)))
    conn = neg_diff * dom2d.size + np.arange(dom2d.size, dtype=np.int64)
    return character_sum_table(PointDomain(ctx, 2 * d + 1), conn)


def affine_eigenvalues_broadcast(ctx, s, coeffs, d):
    """The closed-form affine eigenvalue table in one piece:
    lam(m0, m_1..m_2d) = prod_j W(-+m0*a_j, m_j), each m0 slice built by
    broadcasting 2d rows of W into a q^(2d) array of ones."""
    q = ctx.q
    u = np.arange(q, dtype=np.int64)
    # W[a, b] = sum_u chi(a*u^s + b*u)
    au = ctx.mul_vec(u[:, None], ctx.pow_table(s)[None, :])
    bu = ctx.mul_vec(u[:, None], u[None, :])
    W = ctx.char_vec(ctx.add_vec(au[:, None, :], bu[None, :, :])).sum(axis=2)
    lam = np.empty((q, q ** (2 * d)), dtype=np.complex128)
    for m0 in range(q):
        alphas = ([ctx.mul(ctx.neg(m0), c) for c in coeffs]
                  + [ctx.mul(m0, c) for c in coeffs])
        row = np.ones((q,) * (2 * d), dtype=np.complex128)
        for j, a in enumerate(alphas):
            row = row * W[a].reshape((1,) * j + (q,) + (1,) * (2 * d - 1 - j))
        lam[m0] = row.reshape(-1)
    return lam.reshape(-1)


def scan_reference(eigenvalues, degree):
    """(lambda_second, argmax_m, lambda_mixing, argmax_mixing) of a whole
    eigenvalue table, with every temporary the size of the table;
    InvariantError when the trivial eigenvalue is not the degree."""
    lam0 = eigenvalues[0]
    if abs(lam0 - degree) > 1e-9 * max(1.0, degree):
        raise InvariantError(f"trivial eigenvalue {lam0} != degree {degree}")
    mods = np.abs(eigenvalues)
    keep = np.abs(mods - degree) > 1e-9 * max(1.0, degree)
    if np.any(keep):
        masked = np.where(keep, mods, -1.0)
        arg = int(np.argmax(masked))
        lam = float(masked[arg])
    else:
        arg, lam = 0, 0.0
    arg_mixing = 1 + int(np.argmax(mods[1:])) if len(mods) > 1 else 0
    lam_mixing = float(mods[arg_mixing]) if len(mods) > 1 else 0.0
    return lam, arg, lam_mixing, arg_mixing


def spectrum_text_reference(eigenvalues):
    """The `spectrum ... --out` text of an eigenvalue table, formatted one
    cell at a time from Python floats."""
    rows = [f"{m} {float(ev.real)!r} {float(ev.imag)!r} {float(abs(ev))!r}\n"
            for m, ev in enumerate(eigenvalues)]
    return "m re im modulus\n" + "".join(rows)


def brute_edge_count(p, S, B, C):
    """Ordered multiset edge count: pairs (b, c) with c - b in S."""
    sset = set(S)
    total = 0
    for b, mb in B.items():
        for c, mc in C.items():
            diff = tuple((ci - bi) % p for bi, ci in zip(b, c))
            if diff in sset:
                total += mb * mc
    return total


def digit_sub(p, n, v, u):
    """v - u for flat indices of (Z_p)^k with p^k = n, digit by digit: the
    additive group of F_q^d in the canonical indexing."""
    out, pk = 0, 1
    while pk < n:
        out += ((v // pk - u // pk) % p) * pk
        pk *= p
    return out


def mixing_reference(p, n, conn, lambda_mixing, degree, B, C):
    """One pair's expander-mixing audit the per-pair way: a double loop over
    the Counter supports of B and C, u -> v iff v - u lies in conn, and
    Fraction arithmetic.  Returns (e, main, deviation, bound, gap, ok)."""
    sset = set(conn)
    e = 0
    for b, mb in B.items():
        for c, mc in C.items():
            if digit_sub(p, n, c, b) in sset:
                e += mb * mc
    main = Fraction(degree * sum(B.values()) * sum(C.values()), n)
    bound = lambda_mixing * math.sqrt(sum(m * m for m in B.values())
                                      * sum(m * m for m in C.values()))
    deviation = float(abs(e - main))
    return (e, float(main), deviation, bound, bound - deviation,
            deviation <= bound + 1e-6 * bound + 1e-12)


def draw_multisets_reference(rng, count, n, max_support, max_multiplicity):
    """The next `count` `audit mixing` multisets as flat lists (sizes,
    points, mults), one randrange call per draw: each multiset draws its
    support size randrange(1, max_support + 1), then per point randrange(n)
    followed by randrange(1, max_multiplicity + 1)."""
    randrange = rng.randrange
    sizes, points, mults = [], [], []
    for _ in range(count):
        size = randrange(1, max_support + 1)
        sizes.append(size)
        for _ in range(size):
            points.append(randrange(n))
            mults.append(randrange(1, max_multiplicity + 1))
    return sizes, points, mults


def random_multiset(rng, n, max_support, max_multiplicity):
    """A Counter drawn as `audit mixing` draws each multiset: its support
    size, then per point its index followed by its multiplicity."""
    out = Counter()
    for _ in range(rng.randint(1, max_support)):
        out[rng.randrange(n)] += rng.randint(1, max_multiplicity)
    return out


def flat_multisets(multisets):
    """A list of multisets, each a Counter or a list of (point,
    multiplicity) draws, as the flat arrays (sizes, points, mults) that
    `merge_multisets` takes."""
    draws = [list(M.items()) if isinstance(M, Counter) else M for M in multisets]
    return (np.array([len(M) for M in draws]),
            np.array([x for M in draws for x, _ in M], dtype=np.int64),
            np.array([m for M in draws for _, m in M]))


def mixing_payload_reference(rng, p, spec, conn, pairs, max_support,
                             max_multiplicity):
    """The `audit mixing` JSON payload, one pair at a time by
    `mixing_reference`; spec supplies n, degree and the two lambdas."""
    violations = 0
    min_gap = None
    for _ in range(pairs):
        B = random_multiset(rng, spec.order, max_support, max_multiplicity)
        C = random_multiset(rng, spec.order, max_support, max_multiplicity)
        *_, bound, gap, ok = mixing_reference(p, spec.order, conn, spec.lambda_mixing,
                                              spec.degree, B, C)
        rel_gap = gap / bound if bound else 0.0
        min_gap = rel_gap if min_gap is None else min(min_gap, rel_gap)
        violations += not ok
    return {"pairs": pairs, "violations": violations, "min_relative_gap": min_gap,
            "lambda": spec.lambda_second, "degree": spec.degree, "n": spec.order}


def smallest_generator_reference(ctx):
    """The smallest generator of F_q^* the scalar way: candidates 2, 3, ...
    in turn, each raised to (q-1)/f for every prime f dividing q - 1 by
    polynomial square-and-multiply."""
    q = ctx.q
    factors, m, f = set(), q - 1, 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for cand in range(2, q):
        if all(pow_poly(ctx, cand, (q - 1) // f) != 1 for f in factors):
            return cand
    return None


def sphere_points(p, d, t):
    return [x for x in itertools.product(range(p), repeat=d)
            if sum(c * c for c in x) % p == t % p]


def complex_fold_error_bound(dom, sizes, norms):
    """The a priori rounding bound of a transform fold taken with the complex
    pair fftn/ifftn, C = 8 (see `energy.fold_counts`): the real-input bound
    may never fall below it."""
    u = 2.0 ** -53
    alpha = 8.0 * dom.ctx.p ** 1.5 * u
    eps = math.expm1(dom.nd * math.log1p(alpha))
    eps_inv = (1 + eps) * (1 + u) ** 2 - 1
    eta = eps * math.sqrt(dom.size)
    m = len(sizes)
    theta = math.expm1((m - 1) * math.log1p(math.sqrt(2) * 2 * u / (1 - 2 * u)))
    terms = [norms[i] * math.prod(sizes[:i] + sizes[i + 1:]) for i in range(m)]
    spread = (1 + eta) ** (m - 1) * (eps * sum(terms) + theta * (1 + eps) * min(terms))
    return spread * (1 + eps_inv) + eps_inv * min(terms)


def half_spectrum_reference(dom, table):
    """The full complex transform of a table over (Z_p)^(nd) by np.fft.fftn,
    cut to its first p // 2 + 1 bins along axis 0."""
    return np.fft.fftn(np.asarray(table, dtype=float).reshape(dom.shape))[: dom.ctx.p // 2 + 1]
