"""Command-line entry point.

Subcommands:

    verify sylow2      one statement of the Sylow-2 size/census bounds
    verify tower       the seeded centralizer-index identity campaign
    verify counting    the fixed-point counting ratio on PG(2, q)
    verify fixtrans    the fixed-point transitivity equivalence battery
    verify lemma-a     the involution-index bound campaign over subgroups
    verify sn-bounds   the primitive permutation-group bound battery
    verify quaternion  quaternion-Sylow structure recognition battery
    census sylow2      census table for constructed Sylow 2-subgroups
    plane build        build PG(2, q) and export it
    report merge       merge newline-delimited JSON report files

Exit codes: 0 all verified / not applicable; 1 any violated; 2 any
resource-limited skip; 3 usage error.
"""

import argparse
import json
import sys
from math import isqrt

from .errors import ResourceLimitError
from .report import Check, dump_reports, exit_code, load_reports

USAGE_ERROR = 3


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


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv", "md"), default="json")
    parser.add_argument("--out", metavar="PATH", default=None)
    parser.add_argument("--stable-output", action="store_true",
                        help="omit timing so identical runs are byte-identical")


def build_parser():
    top = argparse.ArgumentParser(prog="tworank")
    sub = top.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run a verifier")
    vsub = verify.add_subparsers(dest="verifier")

    p = vsub.add_parser("sylow2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--statement", type=int, choices=(1, 2, 3, 4, 5), default=None,
                   help="default: every statement whose side conditions match")
    p.add_argument("--cap", type=positive_int, default=None,
                   help="element cap of the Sylow 2-subgroup closures (statements 2, 4, 5)")
    _add_common(p)

    p = vsub.add_parser("tower")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=positive_int, default=200)
    _add_common(p)

    p = vsub.add_parser("counting")
    p.add_argument("--q", type=odd_prime_power_square, required=True,
                   help="the plane order: the square of an odd prime power")
    _add_common(p)

    p = vsub.add_parser("fixtrans")
    _add_common(p)

    p = vsub.add_parser("lemma-a")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--q", type=odd_prime_power, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=positive_int, default=1000)
    p.add_argument("--cap", type=positive_int, default=None,
                   help="largest subgroup order the random stream closes "
                        "(default 30000 for n <= 2, else 4000; the exhaustive "
                        "lattice ignores it)")
    _add_common(p)

    p = vsub.add_parser("sn-bounds")
    _add_common(p)

    p = vsub.add_parser("quaternion")
    _add_common(p)

    census = sub.add_parser("census", help="export censuses")
    csub = census.add_subparsers(dest="what")
    p = csub.add_parser("sylow2")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--q", type=odd_prime_power, required=True)
    p.add_argument("--cap", type=positive_int, default=None,
                   help="element cap of the Sylow 2-subgroup closure")
    _add_common(p)

    planecmd = sub.add_parser("plane", help="plane construction")
    psub = planecmd.add_subparsers(dest="what")
    p = psub.add_parser("build")
    p.add_argument("--q", type=odd_prime_power, required=True)
    _add_common(p)

    reportcmd = sub.add_parser("report", help="report file utilities")
    rsub = reportcmd.add_subparsers(dest="what")
    p = rsub.add_parser("merge")
    p.add_argument("files", nargs="+")
    _add_common(p)

    return top


# -- batteries ---------------------------------------------------------------


def _sylow2_reports(args):
    from .matgroup import verify_sylowtwoingln

    statements = [args.statement] if args.statement else [1, 2, 3, 4, 5]
    return [verify_sylowtwoingln(s, args.n, args.q, cap=args.cap) for s in statements]


def _tower_reports(args):
    from .tower import random_identity_campaign

    aggregate, reports = random_identity_campaign(args.seed, args.trials)
    return reports + [aggregate]


def _counting_reports(args):
    from .plane import counting_identity_check, counting_instance, pg2

    try:
        plane = pg2(args.q)
    except ResourceLimitError as exc:
        return [Check("plane-counting", {"q": args.q}).skipped(exc)]
    G, fr = counting_instance(plane)
    return [counting_identity_check(G, fr)]


def _fixtrans_reports(args):
    from .acceptance_instances import fixtrans_battery

    return fixtrans_battery()


def _lemma_a_reports(args):
    from .lemma_a import lemma_a_campaign

    aggregate, verdicts = lemma_a_campaign(
        args.n, args.q, mode=args.mode, seed=args.seed, trials=args.trials,
        max_order=args.cap,
    )
    return [aggregate], verdicts


def _sn_bounds_reports(args):
    from .acceptance_instances import sn_bound_battery

    return sn_bound_battery()


def _quaternion_reports(args):
    from .acceptance_instances import quaternion_battery

    return quaternion_battery()


# -- output ------------------------------------------------------------------


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_skipped(check, exc, args):
    """Write the skipped-resource report of a command that stopped at a cap."""
    report = check.skipped(exc)
    _emit(report.to_json(stable=args.stable_output), args.out)
    return exit_code([report])


def _render_reports(reports, args):
    if args.format == "json":
        return "\n".join(r.to_json(stable=args.stable_output) for r in reports)
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


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return USAGE_ERROR
    if args.command == "verify":
        if args.verifier == "sylow2":
            reports = _sylow2_reports(args)
        elif args.verifier == "tower":
            reports = _tower_reports(args)
        elif args.verifier == "counting":
            reports = _counting_reports(args)
        elif args.verifier == "fixtrans":
            reports = _fixtrans_reports(args)
        elif args.verifier == "lemma-a":
            reports, verdicts = _lemma_a_reports(args)
            if args.format == "csv":
                from .lemma_a import VERDICT_CSV_HEADER

                rows = [VERDICT_CSV_HEADER] + [v.csv_row() for v in verdicts]
                _emit("\n".join(rows), args.out)
                for r in reports:
                    print(r.summary_line(), file=sys.stderr)
                return exit_code(reports)
        elif args.verifier == "sn-bounds":
            reports = _sn_bounds_reports(args)
        elif args.verifier == "quaternion":
            reports = _quaternion_reports(args)
        else:
            parser.parse_args(["verify", "--help"])
            return USAGE_ERROR
        _emit(_render_reports(reports, args), args.out)
        for r in reports:
            print(r.summary_line(), file=sys.stderr)
        return exit_code(reports)
    if args.command == "census" and args.what == "sylow2":
        from .matgroup import CENSUS_CSV_HEADER, census_csv_row, sylow2_gl

        check = Check("sylow2-census", {"n": args.n, "q": args.q})
        try:
            desc = sylow2_gl(args.n, args.q, cap=args.cap)
        except ResourceLimitError as exc:
            return _emit_skipped(check, exc, args)
        if args.format == "csv":
            _emit(CENSUS_CSV_HEADER + "\n" + census_csv_row(desc), args.out)
        else:
            _emit(
                json.dumps(
                    {
                        "n": args.n,
                        "q": args.q,
                        "construction": desc.construction,
                        "order": desc.group.order,
                        "involutions": desc.census_total,
                        "central": desc.census_central,
                    },
                    sort_keys=True,
                ),
                args.out,
            )
        return 0
    if args.command == "plane" and args.what == "build":
        from .plane import pg2

        check = Check("plane-build", {"q": args.q})
        try:
            plane = pg2(args.q)
        except ResourceLimitError as exc:
            return _emit_skipped(check, exc, args)
        if args.format == "csv":
            _emit(plane.incidence_csv(), args.out)
        else:
            _emit(json.dumps(plane.to_json_dict(), sort_keys=True), args.out)
        return 0
    if args.command == "report" and args.what == "merge":
        merged = []
        for path in args.files:
            with open(path) as fh:
                merged.extend(load_reports(fh))
        out = sys.stdout if not args.out else open(args.out, "w")
        try:
            dump_reports(merged, out, stable=args.stable_output)
        finally:
            if args.out:
                out.close()
        return exit_code(merged)
    parser.print_help()
    return USAGE_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
