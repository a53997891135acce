"""Command-line front end.

Subcommands: quantile, cdf, sf, sample, verify, ks, errata, list.
Scalars print with shortest-roundtrip precision (all 17 significant
digits when needed).  Exit codes: 0 success, 2 usage or parameter
errors (with a diagnostic naming the violated constraint), 3 numeric
failures (bracketing or tolerance, with the achieved residual printed).
"""

import argparse
import sys

from .errors import DomainError, LambertQError, NoAnalyticFormError, ParamError
from .families import (
    cdf,
    family_ids,
    family_info,
    quantile,
    survival,
    validate,
)
from .invert import numeric_quantile
from .refsets import reference_specs
from .sampling import SampleMethod, batch_to_csv, batch_to_json, ks_statistic, sample
from .verify import default_grid, errata_report, report_to_csv, report_to_json, verify_family

__all__ = ["main"]


def _fmt(x):
    return repr(float(x))


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ParamError("--param expects key=value; got %r" % item)
        try:
            params[key] = float(value)
        except ValueError:
            raise ParamError("--param %s: %r is not a number" % (key, value)) from None
    return params


def _spec_from(args):
    return validate(args.family, **_parse_params(args.param))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lambertq",
        description=(
            "Quantiles, survival functions, inverse-transform sampling, and "
            "closed-form verification for 28 lifetime distribution families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", required=True, help="family id (see `lambertq list`)")
        p.add_argument(
            "--param", action="append", metavar="KEY=VALUE",
            help="one parameter; repeat for each (e.g. --param a=1 --param b=2)",
        )

    p = sub.add_parser("quantile", help="evaluate Q(u); numeric inversion when no closed form")
    add_family_args(p)
    p.add_argument("--u", type=float, required=True, help="probability in (0, 1)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="residual tolerance for the numeric path, at least 1e-14 (default "
                        "1e-12); families with a closed-form quantile ignore it")

    p = sub.add_parser("cdf", help="evaluate F(t)")
    add_family_args(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("sf", help="evaluate the survival function SF(t)")
    add_family_args(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("sample", help="draw n inverse-transform samples")
    add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", default="auto", choices=["analytic", "numeric", "auto"])
    p.add_argument("--format", default="csv", choices=["csv", "json"])

    p = sub.add_parser("verify", help="verify printed quantile formulas per family")
    p.add_argument("--family", help="restrict to one family (default: all)")
    p.add_argument("--grid-size", type=int, default=99,
                   help="number of grid probabilities (>= 99, default 99)")

    p = sub.add_parser("ks", help="sample, then report the Kolmogorov-Smirnov D_n")
    add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("errata", help="print the formula-verification report")
    p.add_argument("--format", default="json", choices=["csv", "json"])

    sub.add_parser("list", help="list all families with parameters and support")

    return parser


def _cmd_quantile(args, out):
    spec = _spec_from(args)
    if family_info(spec.family).quantile is not None:
        result = quantile(spec, args.u)
    else:
        result = numeric_quantile(spec, args.u, tol=args.tol)
    out.write(_fmt(result.t) + "\n")
    return 0


def _cmd_cdf(args, out):
    spec = _spec_from(args)
    out.write(_fmt(cdf(spec, args.t)) + "\n")
    return 0


def _cmd_sf(args, out):
    spec = _spec_from(args)
    out.write(_fmt(survival(spec, args.t)) + "\n")
    return 0


def _cmd_sample(args, out):
    spec = _spec_from(args)
    batch = sample(spec, args.n, args.seed, method=SampleMethod(args.method.capitalize()))
    out.write(batch_to_csv(batch) if args.format == "csv" else batch_to_json(batch) + "\n")
    return 0


def _cmd_verify(args, out):
    grid = default_grid(args.grid_size)
    if args.family:
        family_info(args.family)  # an unknown id fails with the list of valid ones
        entries = [verify_family(spec, grid) for spec in reference_specs(args.family)]
    else:
        entries = errata_report(grid)
    for e in entries:
        err = "-" if e.max_roundtrip_error_printed is None \
            else _fmt(e.max_roundtrip_error_printed)
        out.write("%-20s %-18s max_err_printed=%s\n" % (e.family, e.verdict.value, err))
    return 0


def _cmd_ks(args, out):
    spec = _spec_from(args)
    batch = sample(spec, args.n, args.seed)
    out.write(_fmt(ks_statistic(batch)) + "\n")
    return 0


def _cmd_errata(args, out):
    entries = errata_report()
    text = report_to_json(entries) if args.format == "json" else report_to_csv(entries)
    out.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_list(args, out):
    for name in family_ids():
        fam = family_info(name)
        kind = "analytic" if fam.quantile is not None else "numeric-only"
        out.write("%-20s params: %-14s support: %-18s quantile: %s\n" % (
            name, ", ".join(fam.params), fam.support_desc, kind))
    return 0


_COMMANDS = {
    "quantile": _cmd_quantile,
    "cdf": _cmd_cdf,
    "sf": _cmd_sf,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "ks": _cmd_ks,
    "errata": _cmd_errata,
    "list": _cmd_list,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)

    try:
        return _COMMANDS[args.command](args, out)
    except (ParamError, DomainError, NoAnalyticFormError, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return 2
    except LambertQError as exc:
        err.write("numeric failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
