"""Command-line interface.

Every operation is exposed as a subcommand with file-based, reproducible
inputs and outputs.  Exit codes: 0 = success and all hard audits passed,
1 = usage or input error, 2 = a paper-exact inequality was violated by the
measured data.  All randomness flows through --seed (default 0, never
wall-clock entropy), so identical invocations produce identical output.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .domains import PointDomain
from .energy import (
    FoldLadder,
    delta_set,
    lambda_k,
    nu_P_k,
    nu_k,
    second_moment,
    sumset,
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
    regularity_check,
)
from .spectra import (
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    mixing_audit,
    pad_multisets,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
# Most (b, c) cells `audit mixing` counts in one block of pairs; a block holds
# max(1, MIXING_BLOCK_CELLS // max_support^2) pairs, which bounds its memory.
MIXING_BLOCK_CELLS = 1 << 15


class _Parser(argparse.ArgumentParser):
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
    p.add_argument("--subset", default="all",
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
    seuc.add_argument("--form", default="identity",
                      help="'identity' or 'diag:a1,a2,...'")
    _add_out_arg(seuc)
    _add_pretty_arg(seuc)
    saff = ssub.add_parser("affine")
    _add_field_args(saff)
    saff.add_argument("--s", type=int, default=2, help="diagonal exponent")
    saff.add_argument("--coeffs", help="comma-separated diagonal coefficients")
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
            ep.add_argument("--form", default="identity")
        if name in ("nup", "delta"):
            ep.add_argument("--s", type=int, default=None,
                            help="use the diagonal polynomial sum a_i x_i^s instead of a form")
            ep.add_argument("--coeffs", help="comma-separated diagonal coefficients")
        if name == "nup":
            ep.add_argument("--x-set", default="0",
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
    return builtin_variety(ctx, family, args.d,
                           args.j if family != "paraboloid" else None)


def _subset(variety, args):
    if args.subset == "all":
        return variety.indices
    return sample_subset(variety, int(args.subset), args.seed, args.trial)


def _coeffs(args):
    if args.coeffs:
        return tuple(int(c) for c in args.coeffs.split(","))
    return None


def _emit(payload: dict, args, pretty_lines=None):
    if args.pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _write_spectrum(spec, out_path):
    with open(out_path, "w") as fh:
        fh.write("m re im modulus\n")
        for m, re, im, mod in spec.export_rows():
            fh.write(f"{m} {re!r} {im!r} {mod!r}\n")


def _cmd_variety(args) -> int:
    ctx = _context(args)
    variety = _variety(ctx, args)
    if args.subcommand == "enum":
        if args.out:
            variety.save(args.out)
            _emit({"q": ctx.q, "d": variety.d, "size": variety.size, "out": args.out},
                  args, [f"|V| = {variety.size} -> {args.out}"])
        else:
            sys.stdout.write(f"{ctx.q} {variety.d} {variety.size}\n")
            for pt in variety.points:
                sys.stdout.write(",".join(str(c) for c in pt) + "\n")
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
        spec, check = euclidean_spectrum(ctx, form, args.t, args.d)
    else:
        pspec = diagonal_poly(ctx, args.d, args.s, _coeffs(args))
        spec, check = affine_cayley_spectrum(ctx, pspec, args.d)
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
    variety = _variety(ctx, args)
    dom = PointDomain(ctx, args.d)
    E = FoldLadder(dom, _subset(variety, args))
    if args.subcommand == "lambda":
        value = lambda_k(dom, E, args.k)
        _emit({"k": args.k, "size": len(E), "lambda_k": value}, args, [str(value)])
        return EXIT_OK
    if args.subcommand == "nu":
        form = QuadraticForm.parse(args.form, args.d)
        table = nu_k(dom, E, form, args.k)
        return _emit_table(table, args, extra={"k": args.k, "size": len(E)})
    if args.subcommand == "nup":
        if args.s is None:
            raise FqspectraError("energy nup needs --s (diagonal exponent)")
        pvals = eval_poly_table(dom, diagonal_poly(ctx, args.d, args.s, _coeffs(args)))
        X = [int(v) for v in args.x_set.split(",")]
        x_size = len(set(v % ctx.q for v in X))
        table = nu_P_k(dom, E, X, pvals, args.k)
        sq = second_moment(table)
        bound = sumset_lower_bound(table, x_size, len(E), args.k)
        ds = delta_set(dom, E, pvals, args.k)
        ss = sumset(ctx, X, ds.values)
        code = EXIT_OK if len(ss) >= bound else EXIT_AUDIT
        extra = {"k": args.k, "size": len(E), "x_size": x_size,
                 "second_moment": sq, "cs_bound": float(bound),
                 "sumset_size": len(ss), "cs_bound_ok": len(ss) >= bound}
        rc = _emit_table(table, args, extra=extra)
        return max(rc, code)
    if args.s is not None:
        values = eval_poly_table(dom, diagonal_poly(ctx, args.d, args.s, _coeffs(args)))
    else:
        values = QuadraticForm.parse(args.form, args.d).value_table(dom)
    ds = delta_set(dom, E, values, args.k)
    _emit({"k": args.k, "size": len(E), **ds.as_dict()}, args,
          [f"delta = {list(ds.values)}",
           f"covers F_q^*: {ds.covers_Fq_star}, covers F_q: {ds.covers_Fq}"])
    return EXIT_OK


def _emit_table(table, args, extra=None) -> int:
    if args.format == "csv" or (args.out and not args.pretty):
        text = "t,count\n" + "\n".join(f"{t},{v}" for t, v in table.to_rows())
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            _emit({"out": args.out, **(extra or {})}, args, [f"table -> {args.out}"])
        else:
            print(text)
        return EXIT_OK
    payload = {"counts": {str(t): v for t, v in table.to_rows()}, **(extra or {})}
    _emit(payload, args, [f"{t}: {v}" for t, v in table.to_rows()])
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
    rng = _derive_rng(args.seed, 0, salt="mixing")
    block = max(1, MIXING_BLOCK_CELLS // args.max_support ** 2)
    violations = 0
    min_gap = None
    for start in range(0, args.pairs, block):
        count = min(block, args.pairs - start)
        idx, mult = _draw_multisets(rng, 2 * count, dom.size, args.max_support,
                                    args.max_multiplicity)
        # Rows alternate B_i, C_i: each pair draws B before C.
        audit = mixing_audit(spec, dom, member, idx[0::2], mult[0::2],
                             idx[1::2], mult[1::2])
        rel_gap = np.divide(audit.gap, audit.bound, out=np.zeros(count),
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


def _draw_multisets(rng, count, n, max_support, max_multiplicity):
    """The next `count` random multisets of the stream, merged and padded by
    `pad_multisets`.  Each draws its support size randint(1, max_support),
    then per point randrange(n) followed by randint(1, max_multiplicity).

    randint(a, b) is documented as an alias for randrange(a, b + 1); calling
    randrange directly draws the same stream without the extra call.
    """
    randrange = rng.randrange
    support_stop, mult_stop = max_support + 1, max_multiplicity + 1
    sizes, points, mults = [], [], []
    add_size, add_point, add_mult = sizes.append, points.append, mults.append
    for _ in range(count):
        size = randrange(1, support_stop)
        add_size(size)
        for _ in range(size):
            add_point(randrange(n))
            add_mult(randrange(1, mult_stop))
    return pad_multisets(sizes, points, mults, n)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "variety":
            return _cmd_variety(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "audit":
            return _cmd_audit(args)
        parser.error(f"unknown command {args.command!r}")
    except FqspectraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
