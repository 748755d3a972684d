"""Correctness check applied to every result the benchmark times.

A result passes when
  * it reports no hard failure (experiments) or exits 0 with no violation
    (`audit mixing`);
  * it equals the reference pinned from the seed commit for this workload and
    seed, when one is pinned, or else the first result of the run;
  * its exact counts agree with an independent oracle.  The oracle enumerates
    the variety and draws the seeded subsets itself, recomputes every k-fold
    sum table with an FFT over the additive group (Z_p)^(nd), rounds it to
    integers under a residual bound, and derives from it the energies,
    distance counts, coverage flags, delta sets and sumsets the report claims.

Exact integers, booleans, strings and None must match exactly.  Floats match
to FLOAT_RTOL, because batched or transform-based spectra may change the last
bits of values such as `lambda_mixing`.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
# An FFT fold value further than this from an integer is not trusted.
ROUNDING_LIMIT = 0.25
_MISSING = object()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(got, want, path: str = "$") -> list:
    """Mismatches between a result and its expected value, as messages."""
    if got is _MISSING:
        return [f"{path}: missing, expected {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        errs = []
        for key in sorted(set(want) | set(got)):
            if key not in want:
                errs.append(f"{path}.{key}: unexpected key")
            else:
                errs += compare(got.get(key, _MISSING), want[key], f"{path}.{key}")
        return errs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {want!r}, got {got!r}"]
        errs = []
        for i, (g, w) in enumerate(zip(got, want)):
            errs += compare(g, w, f"{path}[{i}]")
        return errs
    if isinstance(want, float) or isinstance(got, float):
        if (_is_number(got) and _is_number(want)
                and math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)):
            return []
        return [f"{path}: expected {want!r}, got {got!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: expected {want!r}, got {got!r}"]
    return []


def _expect(rec: dict, expected: dict, path: str) -> list:
    errs = []
    for key, want in expected.items():
        errs += compare(rec.get(key, _MISSING), want, f"{path}.{key}")
    return errs


def invariants(workload, result) -> list:
    """Conditions every result must meet, whatever the seed."""
    if workload.entry == "mixing":
        errs = []
        if result["exit_code"] != 0:
            errs.append(f"$.exit_code: {result['exit_code']}")
        if result["report"].get("violations") != 0:
            errs.append(f"$.report.violations: {result['report'].get('violations')!r}")
        return errs
    if result.get("hard_failures") != 0:
        return [f"$.hard_failures: {result.get('hard_failures')!r}"]
    return []


# -- independent oracle --------------------------------------------------------
#
# The oracle relies only on documented conventions: element encodings are
# base-p coefficient vectors modulo `FieldContext.modulus`, points are indexed
# by sum_j x_j q^(d-1-j) in lexicographic order, and subsets are the sorted
# prefix of the canonical point list shuffled by a Mersenne Twister seeded
# from SHA-256 of "fqspectra:<salt>:<seed>:<trial>".


def _coords(q: int, d: int) -> list:
    """x_j for every point of F_q^d, in index order."""
    idx = np.arange(q ** d, dtype=np.int64)
    return [(idx // q ** (d - 1 - j)) % q for j in range(d)]


def _digits(a, p: int, n: int) -> list:
    return [(a // p ** i) % p for i in range(n)]


def _undigits(digits, p: int) -> np.ndarray:
    return sum((c % p) * p ** i for i, c in enumerate(digits))


def _field_add(a, b, p: int, n: int):
    return _undigits([x + y for x, y in zip(_digits(a, p, n), _digits(b, p, n))], p)


def _field_squares(p: int, n: int, modulus) -> np.ndarray:
    """x^2 for every encoding x of F_q: polynomial square modulo the modulus."""
    a = _digits(np.arange(p ** n, dtype=np.int64), p, n)
    conv = [sum(a[i] * a[k - i] for i in range(n) if 0 <= k - i < n)
            for k in range(2 * n - 1)]
    for k in range(2 * n - 2, n - 1, -1):   # X^n = -(m_0 + ... + m_{n-1} X^{n-1})
        top = conv[k] % p
        for i in range(n):
            conv[k - n + i] -= top * modulus[i]
    return _undigits(conv[:n], p)


def _sphere(prog, p: int, n: int, d: int, j: int) -> np.ndarray:
    """Sorted indices of x_1^2 + ... + x_d^2 = j over F_{p^n}."""
    q = p ** n
    squares = _field_squares(p, n, prog.field.FieldContext(p, n).modulus)
    total = np.zeros(q ** d, dtype=np.int64)
    for x in _coords(q, d):
        total = _field_add(total, squares[x], p, n)
    return np.nonzero(total == j % q)[0]


def _rng(seed: int, trial: int, salt: str) -> random.Random:
    digest = hashlib.sha256(f"fqspectra:{salt}:{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _subset(points: np.ndarray, size: int, seed: int, trial: int) -> np.ndarray:
    if size == len(points):
        return points
    order = list(points)
    _rng(seed, trial, "subset").shuffle(order)
    return np.array(sorted(order[:size]), dtype=np.int64)


def _scalars(q: int, size: int, seed: int, trial: int) -> list:
    if size >= q:
        return list(range(q))
    order = list(range(q))
    _rng(seed, trial, "scalars").shuffle(order)
    return sorted(order[:size])


def _folds(p: int, nd: int, flat: np.ndarray, depths) -> dict:
    """r_j for each j in depths: the j-fold sum counts of a set, via FFT.

    The flat index of a point is its base-p digit string, so the additive
    group of F_q^d is (Z_p)^(nd) on the reshaped table.
    """
    f = np.zeros(p ** nd)
    f[flat] = 1.0
    F = np.fft.fftn(f.reshape((p,) * nd))
    out = {}
    for j in depths:
        r = np.fft.ifftn(F ** j).real.ravel()
        rounded = np.rint(r)
        if np.max(np.abs(r - rounded)) >= ROUNDING_LIMIT:
            raise ArithmeticError(f"FFT fold r_{j} is not within rounding limit")
        out[j] = rounded.astype(np.int64)
        if int(out[j].sum()) != len(flat) ** j:
            raise ArithmeticError(f"FFT fold r_{j} lost mass")
    return out


def _square_sum(r: np.ndarray) -> int:
    return int(np.sum(r.astype(object) ** 2))


def _sizes(plan, variety_size: int) -> list:
    q = plan.p ** plan.n
    out = []
    for s in plan.sizes:
        if plan.sizes_mode == "threshold":
            target = int(round(s * q ** ((plan.d - 1) / 2 + 1 / (plan.k - 1))))
        else:
            target = int(s)
        out.append(max(0, min(target, variety_size)))
    return out


def _trials(plan, variety_size: int, with_x: bool):
    """(size index, size, trial, x size) in the runners' record order."""
    for si, size in enumerate(_sizes(plan, variety_size)):
        for trial in range(plan.trials):
            for x in (plan.x_sizes if with_x else (None,)):
                yield si, size, trial, x


def _records(plan, variety, result, with_x, errs) -> list:
    items = list(_trials(plan, len(variety), with_x))
    if len(items) != len(result["records"]):
        errs.append(f"$.records: {len(result['records'])} records, expected {len(items)}")
        return []
    return list(zip(items, result["records"]))


def _prime_sphere(prog, plan) -> np.ndarray:
    if plan.n != 1 or plan.family != "sphere":
        raise NotImplementedError("this oracle covers spheres over prime fields")
    return _sphere(prog, plan.p, 1, plan.d, plan.j)


def _oracle_coverage(prog, plan, seed, result, errs):
    q, d, k = plan.p, plan.d, plan.k
    if plan.form != "identity":
        raise NotImplementedError("the coverage oracle covers the identity form")
    variety = _prime_sphere(prog, plan)
    qvals = sum(c * c for c in _coords(q, d)) % q
    depths = {k, k // 2} if k % 2 == 0 else {k, (k - 1) // 2, (k + 1) // 2}
    for i, ((si, size, trial, _), rec) in enumerate(_records(plan, variety, result,
                                                              False, errs)):
        r = _folds(q, d, _subset(variety, size, seed, trial), depths - {0})
        nu = np.zeros(q, dtype=np.int64)
        np.add.at(nu, qvals, r[k])
        expected = {"size_index": si, "trial": trial, "size": size,
                    "min_nu_nonzero_t": int(nu[1:].min()),
                    "covers_Fq_star": bool(np.all(nu[1:] > 0)),
                    "covers_Fq": bool(np.all(nu > 0)), "audit_failures": 0}
        if size:
            main = size ** k / q
            expected["rel_deviation"] = max(abs(int(nu[t]) / main - 1) for t in range(1, q))
            if k % 2 == 0:
                energy = _square_sum(r[k // 2])
            else:
                energy = math.sqrt(_square_sum(r[(k - 1) // 2]) * _square_sum(r[(k + 1) // 2]))
            expected["hypothesis_margin"] = q ** ((d + 1) / 2) * energy / size ** k
        errs += _expect(rec, expected, f"$.records[{i}]")


def _oracle_energy(prog, plan, seed, result, errs):
    p, n, d = plan.p, plan.n, plan.d
    q = p ** n
    if plan.family != "sphere":
        raise NotImplementedError("the energy oracle covers spheres")
    variety = _sphere(prog, p, n, d, plan.j)
    ks = plan.ks or (plan.k,)
    floor = q ** ((d - 1) / 2)
    depths = {m // 2 for k in ks for m in ((k,) if k % 2 == 0 else (k - 1, k + 1))}
    for i, ((si, size, trial, _), rec) in enumerate(_records(plan, variety, result,
                                                              False, errs)):
        expected = {"size_index": si, "trial": trial, "size": size}
        if size <= floor:
            expected["skipped"] = "SubsetTooSmall"
            errs += _expect(rec, expected, f"$.records[{i}]")
            continue
        r = _folds(p, n * d, _subset(variety, size, seed, trial), depths)
        lam = {m: _square_sum(r[m // 2]) for m in (2 * j for j in depths)}
        for k in ks:
            if k == 2:
                expected["k2_identity_ok"] = lam[2] == size
            elif k % 2 == 0:
                denom = q ** ((d - 1) * (k - 2) / 2) * size + size ** (k - 1) / q
                expected[f"k{k}_energy"] = lam[k]
                expected[f"k{k}_ratio"] = float(lam[k]) / denom
                expected[f"k{k}_audit_ok"] = True
            else:
                prod = lam[k - 1] * lam[k + 1]
                bound = (q ** ((d - 1) * (k - 2)) * size ** 2
                         + q ** (((d - 1) * (k - 3) - 2) / 2) * size ** (k + 1)
                         + size ** (2 * k - 2) / q ** 2)
                expected[f"k{k}_energy_product"] = prod
                expected[f"k{k}_ratio"] = float(prod) / bound
        errs += _expect(rec, expected, f"$.records[{i}]")


def _oracle_sumset(prog, plan, seed, result, errs):
    q, d, k, s = plan.p, plan.d, plan.k, plan.s
    variety = _prime_sphere(prog, plan)
    coeffs = plan.coeffs or (1,) * d
    pvals = sum(a * c ** s for a, c in zip(coeffs, _coords(q, d))) % q
    for i, ((si, size, trial, x_size), rec) in enumerate(_records(plan, variety, result,
                                                                   True, errs)):
        X = _scalars(q, x_size, seed, trial)
        r = _folds(q, d, _subset(variety, size, seed, trial), (k,))[k]
        delta = sorted(set(int(v) for v in pvals[r > 0]))
        ss = {(a + v) % q for a in X for v in delta}
        expected = {"size_index": si, "trial": trial, "size": size, "x_size": len(X),
                    "delta_size": len(delta), "sumset_size": len(ss),
                    "verdict_cq": len(ss) >= plan.c * q}
        if size:
            base = np.zeros(q, dtype=np.int64)
            np.add.at(base, pvals, r)
            sq = _square_sum(sum(np.roll(base, a) for a in X))
            bound = Fraction(len(X) ** 2 * size ** (2 * k), sq)
            expected.update({
                "second_moment": sq, "cs_bound": float(bound),
                "cs_bound_ok": len(ss) >= bound, "mixing_audit_ok": True,
                "hypothesis_margin": len(X) * size ** (2 * k - 2)
                / q ** ((d - 1) * (k - 1) + 2)})
        errs += _expect(rec, expected, f"$.records[{i}]")


def _oracle_mixing(prog, w, result, errs):
    plan = w.plan
    q, d = plan["p"], plan["d"]
    if plan["family"] != "sphere":
        raise NotImplementedError("the mixing oracle covers spheres")
    variety = _sphere(prog, q, 1, d, 1)
    indicator = np.zeros(q ** d)
    indicator[variety] = 1.0
    mods = np.abs(np.fft.fftn(indicator.reshape((q,) * d))).ravel()
    degree = len(variety)
    keep = np.abs(mods - degree) > 1e-9 * degree
    expected = {"pairs": plan["pairs"], "violations": 0, "degree": degree,
                "n": q ** d, "lambda": float(mods[keep].max())}
    errs += compare(result["exit_code"], 0, "$.exit_code")
    errs += _expect(result["report"], expected, "$.report")


def oracle(prog, w, seed: int, result) -> list:
    """Mismatches between a full-plan result and the independent oracle."""
    errs = []
    if w.entry == "mixing":
        _oracle_mixing(prog, w, result, errs)
        return errs
    plan = prog.experiments.ExperimentPlan(**w.plan, seed=seed)
    {"coverage": _oracle_coverage, "energy": _oracle_energy,
     "sumset": _oracle_sumset}[w.entry](prog, plan, seed, result, errs)
    return errs


# -- references pinned from the seed commit --------------------------------------

def reference_path(w) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def load_reference(w) -> dict:
    """seed (as a string) -> {"setup": result, "full": result}."""
    path = reference_path(w)
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Checks every result of one workload at one seed.

    Each result is compared with the pinned reference for the seed, or, for
    a seed without one, with the first result of its kind that passed.  The
    first full-plan result is also checked against the oracle.
    """

    def __init__(self, prog, workload, seed: int):
        self.prog = prog
        self.workload = workload
        self.seed = seed
        self.expected = dict(load_reference(workload).get(str(seed), {}))
        self.oracle_done = False

    def check(self, kind: str, result) -> list:
        """kind is "setup" or "full"; returns the mismatches found."""
        errs = invariants(self.workload, result)
        want = self.expected.get(kind)
        if want is not None:
            errs += compare(result, want)
        if kind == "full" and not self.oracle_done:
            errs += oracle(self.prog, self.workload, self.seed, result)
            self.oracle_done = not errs
        if want is None and not errs:
            self.expected[kind] = result
        return errs
