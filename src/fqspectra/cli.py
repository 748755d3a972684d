"""Command-line interface.

Every operation is exposed as a subcommand with file-based, reproducible
inputs and outputs.  Exit codes: 0 = success and all hard audits passed,
1 = usage or input error, 2 = a paper-exact inequality was violated by the
measured data.  All randomness flows through --seed (default 0, never
wall-clock entropy), so identical invocations produce identical output.

`audit mixing` draws its multisets from the Mersenne Twister of
`experiments._derive_rng(seed, 0, salt="mixing")`: per multiset
randrange(1, max_support + 1) for the support size, then per point
randrange(n) and randrange(1, max_multiplicity + 1), B before C in each pair.
`_MultisetDraws` reproduces exactly that randrange stream from 32-bit words
pulled in bulk from a NumPy MT19937 given the generator's state (624 key
words and position), using facts the test suite pins: its random_raw outputs
are the generator's getrandbits(32) outputs, and randrange(a, b) is
a + the first getrandbits(k) attempt below b - a, k = (b - a).bit_length(),
whose ceil(k/32) words are used whole except the last, shifted right by
32 * ceil(k/32) - k.  The generator itself is left unadvanced.
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .domains import PointDomain, require_table_budget
from .energy import (
    FoldLadder,
    delta_set,
    lambda_k,
    nu_P_k,
    nu_k,
    second_moment,
    sumset_lower_bound,
)
from .errors import FqspectraError
from .experiments import (
    ExperimentPlan,
    coverage_experiment,
    energy_bound_experiment,
    sample_subset,
    sumset_experiment,
    _derive_rng,
)
from .field import FieldContext
from .geometry import (
    QuadraticForm,
    Variety,
    builtin_variety,
    diagonal_poly,
    eval_poly_table,
    int_list,
    regularity_check,
)
from .spectra import (
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    merge_multisets,
    mixing_audit,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
# Most (b, c) pairs `audit mixing` counts in one block, the length of the
# audit's flat pair arrays: a block holds max(1, this // max_support^2) pairs.
MIXING_BLOCK_CELLS = 1 << 15
# Most Mersenne Twister words `audit mixing` pulls, and so decodes, at once: the
# decode's dozen int64 tables then stay under a megabyte, and each pass reuses
# freed memory rather than growing the heap.  A longer multiset takes several pulls.
_DRAW_MAX_WORDS = 1 << 13
# Most rows `spectrum ... --out` formats in one write: bounds the Python
# floats and text held at once.
_WRITE_ROWS = 1 << 16
_FORM_HELP = "diagonal quadratic form: 'identity' or 'diag:a1,a2,...'"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with '-' as an option unless
        # it looks like a negative number; a comma list of integers that
        # starts with a negative one (`--x-set -1,6,13`, `--coeffs -1,2`) is a
        # value too.
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(lo: int):
    """argparse type: an int that is at least lo, else a usage error."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _reads_as(read, what: str):
    """argparse type: read(text), else a usage error that names the option
    and says what its value must be."""
    def parse(text):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
    return parse


def _subset_size(text):
    return text if text == "all" else int(text)


_INT_LIST = _reads_as(int_list, "a list of integers")


def _add_field_args(p):
    p.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p.add_argument("--n", type=int, default=1, help="extension degree (default 1)")
    p.add_argument("--d", type=int, default=2, help="ambient dimension")


def _add_variety_args(p):
    p.add_argument("--family", choices=("sphere", "paraboloid", "minkowski"),
                   help="built-in variety family")
    p.add_argument("--j", type=int, default=1, help="family radius (sphere/minkowski)")
    p.add_argument("--variety-file", help="load points from a `variety enum` file")


def _add_subset_args(p):
    p.add_argument("--subset", default="all", type=_reads_as(_subset_size, "'all' or a count"),
                   help="'all' or a subset size sampled with --seed/--trial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)


def _add_out_arg(p):
    p.add_argument("--out", help="write the main artifact to this path")


def _add_pretty_arg(p):
    p.add_argument("--pretty", action="store_true", help="human-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="fqspectra",
                     description="Exact spectral/additive computations over F_q.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    variety = sub.add_parser("variety", help="enumerate or certify varieties")
    vsub = variety.add_subparsers(dest="subcommand", required=True)
    venum = vsub.add_parser("enum")
    _add_field_args(venum)
    _add_variety_args(venum)
    _add_out_arg(venum)
    _add_pretty_arg(venum)
    vcheck = vsub.add_parser("check")
    _add_field_args(vcheck)
    _add_variety_args(vcheck)
    _add_out_arg(vcheck)
    _add_pretty_arg(vcheck)
    vcheck.add_argument("--c1-lo", type=float, default=0.5)
    vcheck.add_argument("--c1-hi", type=float, default=2.0)
    vcheck.add_argument("--c2-max", type=float, default=3.0)

    spectrum = sub.add_parser("spectrum", help="Cayley (di)graph eigenvalue maps")
    ssub = spectrum.add_subparsers(dest="subcommand", required=True)
    scay = ssub.add_parser("cayley")
    _add_field_args(scay)
    _add_variety_args(scay)
    _add_out_arg(scay)
    _add_pretty_arg(scay)
    seuc = ssub.add_parser("euclidean")
    _add_field_args(seuc)
    seuc.add_argument("--t", type=int, required=True, help="level of Q(x-y)=t")
    seuc.add_argument("--form", default="identity", help=_FORM_HELP)
    _add_out_arg(seuc)
    _add_pretty_arg(seuc)
    saff = ssub.add_parser("affine")
    _add_field_args(saff)
    saff.add_argument("--s", type=int, default=2, help="diagonal exponent")
    saff.add_argument("--coeffs", type=_INT_LIST, help="comma-separated diagonal coefficients")
    _add_out_arg(saff)
    _add_pretty_arg(saff)

    energy = sub.add_parser("energy", help="exact energies and count tables")
    esub = energy.add_subparsers(dest="subcommand", required=True)
    for name in ("lambda", "nu", "nup", "delta"):
        ep = esub.add_parser(name)
        _add_field_args(ep)
        _add_variety_args(ep)
        _add_subset_args(ep)
        _add_pretty_arg(ep)
        ep.add_argument("--k", type=int, required=True)
        if name in ("nu", "nup"):
            _add_out_arg(ep)
            ep.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("nu", "delta"):
            # delta's None is identity, told apart from a --form given with --s.
            ep.add_argument("--form", default="identity" if name == "nu" else None,
                            help=_FORM_HELP)
        if name in ("nup", "delta"):
            ep.add_argument("--s", type=int, required=name == "nup",
                            help="use the diagonal polynomial sum a_i x_i^s instead of a form")
            ep.add_argument("--coeffs", type=_INT_LIST,
                            help="comma-separated diagonal coefficients")
        if name == "nup":
            ep.add_argument("--x-set", default="0", type=_INT_LIST,
                            help="comma-separated shift set X inside F_q")

    experiment = sub.add_parser("experiment", help="seeded theorem-level sweeps")
    xsub = experiment.add_subparsers(dest="subcommand", required=True)
    for name in ("coverage", "energy", "sumset"):
        xp = xsub.add_parser(name)
        xp.add_argument("--plan", required=True, help="plan file (key = value lines)")
        xp.add_argument("--out", help="write the JSON report here")
        xp.add_argument("--csv", help="write the per-trial CSV table here")
        xp.add_argument("--pretty", action="store_true")

    audit = sub.add_parser("audit", help="mixing-inequality audits")
    asub = audit.add_subparsers(dest="subcommand", required=True)
    amix = asub.add_parser("mixing")
    _add_field_args(amix)
    _add_variety_args(amix)
    amix.add_argument("--pairs", type=_int_at_least(0), default=1000,
                      help="number of random multiset pairs")
    amix.add_argument("--max-support", type=_int_at_least(1), default=8)
    amix.add_argument("--max-multiplicity", type=_int_at_least(1), default=3)
    amix.add_argument("--seed", type=int, default=0)
    _add_pretty_arg(amix)
    return parser


def _context(args) -> FieldContext:
    return FieldContext(args.p, args.n)


def _variety(ctx, args) -> Variety:
    if args.variety_file:
        variety = Variety.load(args.variety_file)
        if variety.q != ctx.q:
            raise FqspectraError(
                f"variety file is over F_{variety.q}, context is F_{ctx.q}")
        if variety.d != args.d:
            raise FqspectraError(
                f"variety file has d = {variety.d}, requested d = {args.d}")
        return variety
    family = args.family or "sphere"
    return builtin_variety(ctx, family, args.d, args.j)


def _subset(variety, args):
    if args.subset == "all":
        return variety.indices
    return sample_subset(variety, args.subset, args.seed, args.trial)


def _emit(payload: dict, args, pretty_lines=None):
    if args.pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _write_spectrum(spec, out_path):
    """Write the rows `m re im modulus` of spec's eigenvalue table, streamed
    slice by slice with one write per block of at most _WRITE_ROWS rows.

    Each float is the repr of a Python float.  The modulus is np.hypot of
    the real and imaginary parts, which rounds as abs() of each complex
    eigenvalue does; np.abs over an array can differ in the last bit.
    """
    with open(out_path, "w") as fh:
        fh.write("m re im modulus\n")
        m = 0
        for part in spec.slices():
            for start in range(0, len(part), _WRITE_ROWS):
                block = part[start:start + _WRITE_ROWS]
                re, im = block.real, block.imag
                rows = zip(range(m, m + len(block)), _reprs(re), _reprs(im),
                           _reprs(np.hypot(re, im)))
                fh.write("".join(f"{i} {a} {b} {c}\n" for i, a, b, c in rows))
                m += len(block)


def _reprs(values):
    """repr() of each float64 in values, formatted once per distinct bit
    pattern: spectra repeat few values across many cells, and repr is most
    of the writer's time."""
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    text = [repr(x) for x in bits.view(np.float64).tolist()]
    return [text[i] for i in where.tolist()]


def _cmd_variety(args) -> int:
    ctx = _context(args)
    variety = _variety(ctx, args)
    if args.subcommand == "enum":
        if args.out:
            variety.save(args.out)
            _emit({"q": ctx.q, "d": variety.d, "size": variety.size, "out": args.out},
                  args, [f"|V| = {variety.size} -> {args.out}"])
        else:
            variety.write(sys.stdout)
        return EXIT_OK
    graph = cayley_spectrum(ctx, variety.indices, d=variety.d)
    report = regularity_check(graph, thresholds=(args.c1_lo, args.c1_hi, args.c2_max))
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    _emit(payload, args, [
        f"C1 = {report.size_constant:.4f}",
        f"C2 = {report.fourier_constant:.4f} (argmax m = {report.argmax_m})",
        f"verdict {'REGULAR' if report.verdict else 'NOT_REGULAR'} "
        f"under thresholds {report.thresholds}",
    ])
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    ctx = _context(args)
    if args.subcommand == "cayley":
        variety = _variety(ctx, args)
        spec = cayley_spectrum(ctx, variety.indices, d=args.d)
        check = None
    elif args.subcommand == "euclidean":
        form = QuadraticForm.parse(args.form, args.d)
        form.require_nondegenerate(ctx)
        dom = PointDomain(ctx, args.d)
        require_table_budget(dom)
        spec, check = euclidean_spectrum(dom, form.value_table(dom), args.t)
    else:
        spec, check = affine_cayley_spectrum(ctx, args.d, args.s, args.coeffs)
    payload = spec.summary()
    lines = [f"n = {spec.order}, degree = {spec.degree}",
             f"lambda = {spec.lambda_second!r} (argmax m = {spec.argmax_m})"]
    code = EXIT_OK
    if check is not None:
        payload["bound"] = check.bound
        payload["within_bound"] = check.within
        if check.normalized_bound is not None:
            payload["normalized_bound"] = check.normalized_bound
        if check.note:
            payload["note"] = check.note
            lines.append(check.note)
        else:
            lines.append(f"bound {check.bound!r}: "
                         f"{'satisfied' if check.within else 'VIOLATED'}")
            if not check.within:
                code = EXIT_AUDIT
    if args.out:
        _write_spectrum(spec, args.out)
        payload["out"] = args.out
    _emit(payload, args, lines)
    return code


def _cmd_energy(args) -> int:
    ctx = _context(args)
    dom = PointDomain(ctx, args.d)
    # Lambda_k folds to depth k/2, the others to depth k.  A fold of depth 2
    # or more is a table over F_q^d: its budget is checked before V and F's
    # value table are built.
    if (args.k // 2 if args.subcommand == "lambda" else args.k) >= 2:
        require_table_budget(dom, "fold")
    variety = _variety(ctx, args)
    E = FoldLadder(dom, _subset(variety, args))
    if args.subcommand == "lambda":
        value = lambda_k(E, args.k)
        _emit({"k": args.k, "size": len(E), "lambda_k": value}, args, [str(value)])
        return EXIT_OK
    if args.subcommand == "nu":
        form = QuadraticForm.parse(args.form, args.d)
        form.require_nondegenerate(ctx)
        table = nu_k(E, form.value_table(dom), args.k)
        return _emit_table(table, args, extra={"k": args.k, "size": len(E)})
    if args.subcommand == "nup":
        pvals = eval_poly_table(dom, diagonal_poly(ctx, args.d, args.s, args.coeffs))
        x_size = len(set(ctx.element(v) for v in args.x_set))
        binned = nu_k(E, pvals, args.k)
        table = nu_P_k(ctx, binned, args.x_set)
        sq = second_moment(table)
        bound = sumset_lower_bound(table, x_size, len(E), args.k)
        # |X + Delta| is the support size of nu_{P,k}.
        ss_size = int(np.count_nonzero(table))
        code = EXIT_OK if ss_size >= bound else EXIT_AUDIT
        extra = {"k": args.k, "size": len(E), "x_size": x_size,
                 "second_moment": sq, "cs_bound": float(bound),
                 "sumset_size": ss_size, "cs_bound_ok": ss_size >= bound}
        rc = _emit_table(table, args, extra=extra)
        return max(rc, code)
    if args.s is not None:
        if args.form is not None:
            raise ValueError("--form does not apply with --s, which sets the polynomial")
        values = eval_poly_table(dom, diagonal_poly(ctx, args.d, args.s, args.coeffs))
    else:
        if args.coeffs is not None:
            raise ValueError("--coeffs needs --s: the form's coefficients go in --form")
        values = QuadraticForm.parse(args.form or "identity", args.d).value_table(dom)
    ds = delta_set(nu_k(E, values, args.k))
    _emit({"k": args.k, "size": len(E), **ds.as_dict()}, args,
          [f"delta = {list(ds.values)}",
           f"covers F_q^*: {ds.covers_Fq_star}, covers F_q: {ds.covers_Fq}"])
    return EXIT_OK


def _emit_table(table, args, extra=None) -> int:
    # --out always gets the CSV file; --pretty changes only what stdout shows.
    rows = list(enumerate(table.tolist()))
    text = "t,count\n" + "\n".join(f"{t},{v}" for t, v in rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _emit({"out": args.out, **(extra or {})}, args, [f"table -> {args.out}"])
    elif args.format == "csv":
        print(text)
    else:
        payload = {"counts": {str(t): v for t, v in rows}, **(extra or {})}
        _emit(payload, args, [f"{t}: {v}" for t, v in rows])
    return EXIT_OK


def _cmd_experiment(args) -> int:
    plan = ExperimentPlan.from_file(args.plan)
    runner = {"coverage": coverage_experiment,
              "energy": energy_bound_experiment,
              "sumset": sumset_experiment}[args.subcommand]
    report = runner(plan)
    if args.out:
        report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    summary = {"kind": report.kind, "records": len(report.records),
               "hard_failures": report.hard_failures,
               "aggregates": report.aggregates}
    if args.pretty:
        print(f"{report.kind}: {len(report.records)} records, "
              f"{report.hard_failures} hard failures")
        for key, value in sorted(report.aggregates.items()):
            print(f"  {key} = {value}")
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_AUDIT if report.hard_failures else EXIT_OK


def _cmd_audit(args) -> int:
    ctx = _context(args)
    variety = _variety(ctx, args)
    dom = PointDomain(ctx, args.d)
    spec = cayley_spectrum(ctx, variety.indices, d=args.d)
    member = np.zeros(dom.size, dtype=bool)
    member[variety.indices] = True
    draws = _MultisetDraws(_derive_rng(args.seed, 0, salt="mixing"), dom.size,
                           args.max_support, args.max_multiplicity)
    block = max(1, MIXING_BLOCK_CELLS // args.max_support ** 2)
    violations = 0
    min_gap = None
    for start in range(0, args.pairs, block):
        count = min(block, args.pairs - start)
        support, idx, mult = merge_multisets(*draws.draw(2 * count), dom.size)
        of_c = np.repeat(np.arange(2 * count) % 2 == 1, support)  # B_i is drawn before C_i
        audit = mixing_audit(spec, dom, member, (support[0::2], idx[~of_c], mult[~of_c]),
                             (support[1::2], idx[of_c], mult[of_c]))
        rel_gap = np.divide(audit.bound - audit.deviation, audit.bound, out=np.zeros(count),
                            where=audit.bound != 0)
        low = float(rel_gap.min())
        min_gap = low if min_gap is None else min(min_gap, low)
        violations += int(count - np.count_nonzero(audit.ok))
    payload = {"pairs": args.pairs, "violations": violations,
               "min_relative_gap": min_gap, "lambda": spec.lambda_second,
               "degree": spec.degree, "n": spec.order}
    _emit(payload, args, [
        f"{args.pairs} multiset pairs, {violations} violations",
        f"min relative gap = {min_gap}",
    ])
    return EXIT_AUDIT if violations else EXIT_OK


class _MultisetDraws:
    """The `audit mixing` multisets of one seeded stream, decoded from bulk
    Mersenne Twister words by the randrange rule of the module docstring;
    randint(a, b) is documented as randrange(a, b + 1), so this is also the
    stream of those randint calls, bit for bit.  Words pulled past the last
    multiset of a `draw` carry into the next one.  rng is only read: the
    words come from an MT19937 that starts at its state.
    """

    def __init__(self, rng, n, max_support, max_multiplicity):
        *key, pos = rng.getstate()[1]
        self._bits = np.random.MT19937(0)  # seeded only to be overwritten
        self._bits.state = {"bit_generator": "MT19937",
                            "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
        self._widths = (max_support, n, max_multiplicity)
        self._words = np.zeros(0, dtype=np.uint32)
        # Expected words one draw of each range takes, and one multiset.
        per = [_attempt_words(w) * 2 ** w.bit_length() / w for w in self._widths]
        self._expected = per[0] + (max_support + 1) / 2 * (per[1] + per[2])

    def _pull(self, count):
        raw = self._bits.random_raw(min(count, _DRAW_MAX_WORDS)).astype(np.uint32)
        self._words = np.concatenate([self._words, raw])

    def draw(self, count):
        """The next `count` multisets of the stream as flat arrays (sizes,
        points, mults), laid out as `merge_multisets` takes them."""
        parts, least = [], 0
        while count:
            # The expected words of the multisets left, with 5% and one
            # multiset to spare, so that one pass usually decodes the whole
            # block; after a pass that ended inside a multiset, at least one
            # multiset's worth more.
            pull = math.ceil(self._expected * (1.05 * count + 1)) - len(self._words)
            if max(pull, least) > 0:
                self._pull(max(pull, least))
            *part, used = _decode_multisets(self._words, self._widths, count)
            parts.append(part)
            self._words = self._words[used:]
            count -= len(part[0])
            least = math.ceil(self._expected)
        return tuple(np.concatenate(column) for column in zip(*parts))


def _attempt_words(width):
    """Words one getrandbits(k) attempt of randrange(width) takes:
    ceil(k/32) for k = width.bit_length()."""
    return -(-width.bit_length() // 32)


def _attempts(padded, width, index):
    """The randrange(width) draws readable from a buffer of L words, passed
    followed by at least w - 1 zero words, where an attempt takes
    w = `_attempt_words(width)` words.  index is np.arange(L + 2): the
    positions 0..L and the sentinel L + 1 for "the buffer ended first".

    Returns (value, accepted, after), arrays over the positions:
    value[i] is the getrandbits(k) attempt made from position i,
    accepted[i] the first of i, i + w, i + 2w, ... whose attempt falls below
    width, and after[i] the position after that attempt.  An attempt that
    reads padding ends past L, and after clips it to the sentinel, which
    maps to itself: no whole multiset contains a draw read from padding.
    value is uint32 or uint64 for width < 2^64 and Python ints (object
    dtype) past that.
    """
    k = width.bit_length()
    w = _attempt_words(width)
    positions = len(index)
    sentinel = positions - 1
    value = padded[w - 1:w - 1 + positions] >> (32 * w - k)
    if w > 1:
        dtype = np.uint64 if k <= 64 else object
        value = value.astype(dtype)
        for j in range(w - 2, -1, -1):
            value = (value << 32) | padded[j:j + positions].astype(dtype)
    accepted = np.where(value < width, index, sentinel)
    # Reverse running minimum down each residue class mod w, in place: the
    # next accepted attempt at or after every position.
    for c in range(w):
        np.minimum.accumulate(accepted[c::w][::-1], out=accepted[c::w][::-1])
    after = accepted + w
    return value, accepted, np.minimum(after, sentinel, out=after)


def _decode_multisets(words, widths, count):
    """Up to `count` whole multisets from the front of `words`, as (sizes,
    points, mults, used): support sizes, then every point and multiplicity
    in draw order, and the words the returned multisets take.

    From the per-range tables of `_attempts`, `pair` maps a position to the
    one after a (point, multiplicity) draw, and its binary powers give the
    position after a whole multiset for every start at once.  Walking the
    starts is one lookup per multiset; reading the points out takes one
    array step per support slot across all multisets.
    """
    positions = len(words) + 2
    padded = np.zeros(positions + max(map(_attempt_words, widths)), dtype=np.uint32)
    padded[:len(words)] = words
    index = np.arange(positions)
    # Per range, the draw made from each position and the position after it.
    (r, after_size), (point, after_point), (mult, after_mult) = (
        (v[at], after) for v, at, after in (_attempts(padded, w, index) for w in widths))
    # A support size is 1 + r, r < max_support: one pair, then r more.
    pair = after_mult[after_point]
    end = pair[after_size]
    for bit in range((widths[0] - 1).bit_length()):
        if bit:
            pair = pair[pair]
        # end = pair[end] where the bit is set, branch-free: faster than np.where.
        end += (pair[end] - end) * ((r >> bit) & 1 == 1)
    sentinel = positions - 1
    following = memoryview(end)
    starts, used = [], 0
    for _ in range(count):
        nxt = following[used]
        if nxt == sentinel:
            break
        starts.append(used)
        used = nxt
    starts = np.array(starts, dtype=np.int64)
    sizes = _as_ints(r[starts], widths[0]) + 1
    slots = int(sizes.max(initial=0))
    points = np.zeros((len(starts), slots), dtype=point.dtype)
    mults = np.zeros((len(starts), slots), dtype=mult.dtype)
    at = after_size[starts]
    for slot in range(slots):
        points[:, slot] = point[at]
        at = after_point[at]
        mults[:, slot] = mult[at]
        at = after_mult[at]
    drawn = np.arange(slots) < sizes[:, None]
    return (sizes, _as_ints(points[drawn], widths[1]),
            _as_ints(mults[drawn], widths[2]) + 1, used)


def _as_ints(values, width):
    """Draws below width as int64, or as Python ints where 1 + a draw could
    pass int64."""
    return values.astype(np.int64 if width < 1 << 63 else object)


_COMMANDS = {"variety": _cmd_variety, "spectrum": _cmd_spectrum, "energy": _cmd_energy,
             "experiment": _cmd_experiment, "audit": _cmd_audit}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FqspectraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
