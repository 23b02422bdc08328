"""Command-line entry point.

Subcommands, with the --format values each renders (json by default):

    verify sylow2      json csv md  one statement of the Sylow-2 size/census bounds
    verify tower       json csv md  the seeded centralizer-index identity campaign
    verify counting    json csv md  the fixed-point counting ratio on PG(2, q)
    verify fixtrans    json csv md  the fixed-point transitivity equivalence battery
    verify lemma-a     json csv md  the involution-index bound campaign over subgroups
    verify sn-bounds   json csv md  the primitive permutation-group bound battery
    verify quaternion  json csv md  quaternion-Sylow structure recognition battery
    census sylow2      json csv     census table for constructed Sylow 2-subgroups
    plane build        json csv     build PG(2, q) and export it
    report merge       json csv md  merge newline-delimited JSON report files

Each subcommand is one row of COMMANDS: its arguments, its formats and a
handler that returns (text, reports).  `run` writes the text once, to
stdout or --out.  Reports render as NDJSON, a CSV table or a markdown
table; `verify lemma-a --format csv` writes one row per subgroup verdict
instead, and an export stopped by a cap renders its skipped-resource report.

Exit codes: 0 all verified / not applicable; 1 any violated; 2 any
resource-limited skip; 3 usage error, a missing subcommand included (the
help of its group goes to stderr).
"""

import argparse
import io
import json
import sys
from math import isqrt

from .errors import ResourceLimitError
from .report import Check, dump_reports, exit_code, load_reports

USAGE_ERROR = 3
REPORT_FORMATS = ("json", "csv", "md")
EXPORT_FORMATS = ("json", "csv")


# argparse `type=` callables: a bad value is a usage error (exit 3)


def odd_prime_power(text):
    from .partarith import prime_power_decompose

    q = int(text)
    try:
        p, _ = prime_power_decompose(q)
    except ValueError:
        p = 2
    if p == 2:
        raise argparse.ArgumentTypeError(f"{text} is not an odd prime power")
    return q


def odd_prime_power_square(text):
    q = odd_prime_power(text)
    if isqrt(q) ** 2 != q:
        raise argparse.ArgumentTypeError(f"{text} is not the square of an odd prime power")
    return q


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return n


# -- handlers: args -> (text, reports) -----------------------------------------


def _verify_sylow2(args):
    from .matgroup import verify_sylowtwoingln

    statements = [args.statement] if args.statement else [1, 2, 3, 4, 5]
    reports = [verify_sylowtwoingln(s, args.n, args.q, cap=args.cap) for s in statements]
    return _rendered(reports, args)


def _verify_tower(args):
    from .tower import random_identity_campaign

    aggregate, reports = random_identity_campaign(args.seed, args.trials)
    return _rendered(reports + [aggregate], args)


def _verify_counting(args):
    from .plane import counting_identity_check, counting_instance, pg2

    check = Check("plane-counting", {"q": args.q})
    try:
        plane = pg2(args.q)
    except ResourceLimitError as exc:
        return _rendered([check.skipped(exc)], args)
    return _rendered([counting_identity_check(*counting_instance(plane))], args)


def _verify_fixtrans(args):
    from .acceptance_instances import fixtrans_battery

    return _rendered(fixtrans_battery(), args)


def _verify_lemma_a(args):
    from .lemma_a import VERDICT_CSV_HEADER, lemma_a_campaign

    aggregate, verdicts = lemma_a_campaign(
        args.n, args.q, mode=args.mode, seed=args.seed, trials=args.trials,
        max_order=args.cap,
    )
    if args.format == "csv":
        return "\n".join([VERDICT_CSV_HEADER] + [v.csv_row() for v in verdicts]), [aggregate]
    return _rendered([aggregate], args)


def _verify_sn_bounds(args):
    from .acceptance_instances import sn_bound_battery

    return _rendered(sn_bound_battery(), args)


def _verify_quaternion(args):
    from .acceptance_instances import quaternion_battery

    return _rendered(quaternion_battery(), args)


def _census_sylow2(args):
    from .matgroup import CENSUS_CSV_HEADER, census_csv_row, sylow2_gl

    check = Check("sylow2-census", {"n": args.n, "q": args.q})
    try:
        desc = sylow2_gl(args.n, args.q, cap=args.cap)
    except ResourceLimitError as exc:
        return _rendered([check.skipped(exc)], args)
    if args.format == "csv":
        return CENSUS_CSV_HEADER + "\n" + census_csv_row(desc), []
    row = {
        "n": args.n,
        "q": args.q,
        "construction": desc.construction,
        "order": desc.order,
        "involutions": desc.census_total,
        "central": desc.census_central,
    }
    return json.dumps(row, sort_keys=True), []


def _plane_build(args):
    from .plane import pg2

    check = Check("plane-build", {"q": args.q})
    try:
        plane = pg2(args.q)
    except ResourceLimitError as exc:
        return _rendered([check.skipped(exc)], args)
    if args.format == "csv":
        return plane.incidence_csv(), []
    return json.dumps(plane.to_json_dict(), sort_keys=True), []


def _report_merge(args):
    merged = []
    for path in args.files:
        with open(path) as fh:
            merged.extend(load_reports(fh))
    return _rendered(merged, args)


# -- output -------------------------------------------------------------------


def _render_reports(reports, args):
    if args.format == "json":
        buf = io.StringIO()
        dump_reports(reports, buf, stable=args.stable_output)
        return buf.getvalue()
    if args.format == "csv":
        keys = sorted({k for r in reports for k in r.counts})
        lines = ["lemma_id,params,verdict," + ",".join(keys)]
        for r in reports:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            lines.append(
                f"{r.lemma_id},{params},{r.verdict},"
                + ",".join(str(r.counts.get(k, "")) for k in keys)
            )
        return "\n".join(lines)
    lines = [f"| {'claim':<24} | {'verdict':<16} | detail |", "|---|---|---|"]
    for r in reports:
        detail = " ".join(f"{k}={v}" for k, v in sorted(r.counts.items()))
        lines.append(f"| {r.lemma_id:<24} | {r.verdict:<16} | {detail} |")
    return "\n".join(lines)


def _rendered(reports, args):
    return _render_reports(reports, args), reports


def _emit(text, out):
    """Write text to --out or stdout, ending in a newline unless empty."""
    if text and not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- the command table --------------------------------------------------------


def _arg(*flags, **kw):
    return flags, kw


N = _arg("--n", type=positive_int, required=True)
ODD_Q = _arg("--q", type=odd_prime_power, required=True)

GROUPS = {
    "verify": "run a verifier",
    "census": "export censuses",
    "plane": "plane construction",
    "report": "report file utilities",
}

# "group leaf": (arguments, --format choices, handler)
COMMANDS = {
    "verify sylow2": (
        [_arg("--n", type=int, required=True), _arg("--q", type=int, required=True),
         _arg("--statement", type=int, choices=(1, 2, 3, 4, 5), default=None,
              help="default: every statement whose side conditions match"),
         _arg("--cap", type=positive_int, default=None,
              help="element cap of the Sylow 2-subgroup closures (statements 2-5)")],
        REPORT_FORMATS, _verify_sylow2,
    ),
    "verify tower": (
        [_arg("--seed", type=int, default=1), _arg("--trials", type=positive_int, default=200)],
        REPORT_FORMATS, _verify_tower,
    ),
    "verify counting": (
        [_arg("--q", type=odd_prime_power_square, required=True,
              help="the plane order: the square of an odd prime power")],
        REPORT_FORMATS, _verify_counting,
    ),
    "verify fixtrans": ([], REPORT_FORMATS, _verify_fixtrans),
    "verify lemma-a": (
        [N, ODD_Q, _arg("--mode", choices=("exhaustive", "random"), default="exhaustive"),
         _arg("--seed", type=int, default=0), _arg("--trials", type=positive_int, default=1000),
         _arg("--cap", type=positive_int, default=None,
              help="largest subgroup order the random stream closes "
                   "(default 30000 for n <= 2, else 4000; the exhaustive "
                   "lattice ignores it)")],
        REPORT_FORMATS, _verify_lemma_a,
    ),
    "verify sn-bounds": ([], REPORT_FORMATS, _verify_sn_bounds),
    "verify quaternion": ([], REPORT_FORMATS, _verify_quaternion),
    "census sylow2": (
        [N, ODD_Q, _arg("--cap", type=positive_int, default=None,
                        help="element cap of the Sylow 2-subgroup closure")],
        EXPORT_FORMATS, _census_sylow2,
    ),
    "plane build": ([ODD_Q], EXPORT_FORMATS, _plane_build),
    "report merge": ([_arg("files", nargs="+")], REPORT_FORMATS, _report_merge),
}


def build_parser():
    top = argparse.ArgumentParser(prog="tworank")
    top.set_defaults(group=top, handler=None)
    sub = top.add_subparsers(dest="command")
    leaves = {}
    for name, help_text in GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        group.set_defaults(group=group)
        leaves[name] = group.add_subparsers()
    for path, (arguments, formats, handler) in COMMANDS.items():
        group, leaf = path.split()
        p = leaves[group].add_parser(leaf)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--stable-output", action="store_true",
                       help="omit timing so identical runs are byte-identical")
        p.set_defaults(handler=handler)
    return top


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else USAGE_ERROR
    if args.handler is None:
        args.group.print_help(sys.stderr)
        return USAGE_ERROR
    text, reports = args.handler(args)
    _emit(text, args.out)
    if args.command == "verify":
        for r in reports:
            print(r.summary_line(), file=sys.stderr)
    return exit_code(reports)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
