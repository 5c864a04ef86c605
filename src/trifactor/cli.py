"""Command-line front end.

Subcommands: construct, check {c1f|u1f|uc1f|hb1f}, overlap, subgroup,
scan-trace, suite.  Exit codes: 0 clean, 1 computed/predicted discrepancy,
2 indeterminate outcome, 3 usage or i/o error, 4 internal error (a fault in
the program, not in its input).  JSON output is deterministic for
identical inputs and seeds; points appear as integer indices in JSON (the
index q is infinity) and as "inf" in text.
"""

from __future__ import annotations

import argparse
import sys

from .factorisation import build_factorisation, build_one_factor, dumps_factorisation
from .field import UsageError
from .groups import (
    CLOSURE_CAP,
    a4_pair_census,
    classify_subgroup,
    generate_subgroup,
    is_transitive,
    psl_order,
)
from .hypergraph import DEFAULT_TIME_BUDGET, pair_overlap, pair_overlap_algebraic
from .projline import base_map, orbit_map, point_str
from .verifier import (
    PROPERTIES,
    SuiteConfig,
    TheoremVerdict,
    char2_uniformity_scan,
    check_c1f,
    check_hb1f,
    check_u1f,
    exit_status,
    field_for,
    json_text,
    overlap_distribution,
    parse_config,
    require_overlap_histogram,
    run_suite,
    scan_line,
    time_budget_seconds,
    verdict_line,
)

USAGE_ERROR = 3
INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(args, payload, text: str) -> None:
    """payload as JSON under --format json, else text; to --out or stdout."""
    _write_output(json_text(payload) if args.format == "json" else text, args.out)


def _label(ctx, args) -> tuple[int, int] | None:
    """The label --alpha and --beta name (beta 0 by default), or None."""
    if args.alpha is None:
        if args.beta is not None:
            raise UsageError("--beta needs --alpha")
        return None
    return (ctx.parse_element(args.alpha),
            ctx.parse_element("0" if args.beta is None else args.beta))


def _verdict_text(v: TheoremVerdict) -> str:
    lines = [f"{v.prop} q={v.q}: {verdict_line(v.computed, v.predicted)}"]
    if v.witness is not None:
        lines.append(f"  witness: {v.witness}")
    lines.append(f"  stats: {v.to_dict()['stats']}")
    return "\n".join(lines) + "\n"


def cmd_construct(args) -> int:
    fact = build_factorisation(field_for(args.q))
    _write_output(dumps_factorisation(fact, human=args.human), args.out)
    return 0


def cmd_check(args) -> int:
    fact = build_factorisation(field_for(args.q))
    if args.prop == "c1f":
        verdict = check_c1f(fact, mode=args.mode)
    elif args.prop == "hb1f":
        verdict = check_hb1f(
            fact,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            time_budget=args.time_budget,
        )
    else:
        u1f, uc1f = check_u1f(fact)
        verdict = u1f if args.prop == "u1f" else uc1f
    _report(args, {"q": args.q, **verdict.to_dict()}, _verdict_text(verdict))
    return exit_status(verdict.discrepancy, verdict.indeterminate)


def cmd_overlap(args) -> int:
    ctx = field_for(args.q)
    label = _label(ctx, args)
    if label is None:
        fact = build_factorisation(ctx)
        hist = overlap_distribution(fact)
        require_overlap_histogram(fact, hist)
        _report(args, {"q": args.q, "histogram": {str(k): v for k, v in hist.items()}},
                f"overlap histogram q={args.q}: {hist}\n")
        return 0
    a, b = label
    alg = pair_overlap_algebraic(ctx, a, b)
    comb = pair_overlap(build_one_factor(ctx, 1, 0), build_one_factor(ctx, a, b))
    agree = alg.count == comb.count
    payload = {
        "q": args.q,
        "alpha": ctx.element_str(a),
        "beta": ctx.element_str(b),
        "algebraic": alg.count,
        "combinatorial": comb.count,
        "agree": agree,
        "direct_solutions": alg.direct_solutions,
        "inverse_solutions": alg.inverse_solutions,
        "repeated_pairs": [list(p) for p in comb.repeated_pairs],
    }
    direct = [point_str(ctx, x) for x in alg.direct_solutions]
    inverse = [point_str(ctx, x) for x in alg.inverse_solutions]
    _report(args, payload,
            f"overlap q={args.q} label=({ctx.element_str(a)};{ctx.element_str(b)}): "
            f"algebraic={alg.count} combinatorial={comb.count} "
            f"{'ok' if agree else 'MISMATCH'}\n"
            f"  direct solutions: {direct}\n"
            f"  inverse solutions: {inverse}\n")
    return 0 if agree else 1


def cmd_subgroup(args) -> int:
    ctx = field_for(args.q)
    if args.census:
        if args.alpha is not None or args.beta is not None or args.exact:
            raise UsageError("--census takes no --alpha, --beta or --exact")
        payload = {"q": args.q, **a4_pair_census(build_factorisation(ctx))}
        _report(args, payload, f"{payload}\n")
        return 0
    label = _label(ctx, args)
    if label is not None:
        labels = [label]
    else:
        labels = [fac.label for fac in build_factorisation(ctx).factors[1:]]
    f = base_map(ctx)
    rows = []
    for a, b in labels:
        m = orbit_map(ctx, a, b)
        g = generate_subgroup(ctx, [f, m], stop_when_full=not args.exact)
        cls = classify_subgroup(g, ctx)
        rows.append(
            {
                "alpha": ctx.element_str(a),
                "beta": ctx.element_str(b),
                "class": cls.tag,
                "order": cls.order,
                "transitive": is_transitive(ctx, [f, m]),
            }
        )
    payload = {"q": args.q, "psl_order": psl_order(ctx), "labels": rows}
    lines = [f"subgroups q={args.q} (group order {payload['psl_order']}):"]
    for r in rows:
        lines.append(
            f"  ({r['alpha']};{r['beta']}): {r['class']} order={r['order']} "
            f"transitive={r['transitive']}"
        )
    _report(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_scan_trace(args) -> int:
    scan = char2_uniformity_scan(args.l)
    _report(args, scan, scan_line(args.l, len(scan["witnesses_eq4"]), scan) + "\n")
    return 0


def cmd_suite(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = SuiteConfig()
    cfg.include_timings = args.timings
    report = run_suite(cfg)
    _report(args, report.to_dict(), report.to_text())
    return report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="trifactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by the commands that write a report, with and without --q
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "text"), default="text")
    output.add_argument("--out", help="output path (default stdout)")
    field_output = argparse.ArgumentParser(add_help=False, parents=[output])
    field_output.add_argument("--q", type=int, required=True)

    p = sub.add_parser("construct", help="build and dump a factorisation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--human", action="store_true",
                   help="print infinity as 'inf' instead of its index")
    p.set_defaults(func=cmd_construct)

    # each property takes only the options it reads
    p = sub.add_parser("check", help="verify a classification property")
    p.set_defaults(func=cmd_check)
    props = p.add_subparsers(dest="prop", required=True)
    for prop in PROPERTIES:
        props.add_parser(prop, parents=[field_output])
    c1f, hb1f = props.choices["c1f"], props.choices["hb1f"]
    c1f.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    hb1f.add_argument("--mode", choices=("reduced", "full", "sampled"), default="reduced")
    hb1f.add_argument("--samples", type=int, help="sample count for sampled mode")
    hb1f.add_argument("--seed", type=int, help="seed for sampled mode")
    hb1f.add_argument("--time-budget", type=time_budget_seconds,
                      default=DEFAULT_TIME_BUDGET, help="seconds per cycle search")

    p = sub.add_parser("overlap", parents=[field_output],
                       help="pair overlap of the base factor")
    p.add_argument("--alpha", help="label alpha as a coefficient list")
    p.add_argument("--beta", help="label beta as a coefficient list")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("subgroup", parents=[field_output],
                       help="classify generated subgroups")
    p.add_argument("--alpha", help="single label alpha (default: sweep)")
    p.add_argument("--beta", help="single label beta")
    p.add_argument("--exact", action="store_true",
                   help=f"exact closure instead of early exit; exit 3 above "
                        f"{CLOSURE_CAP:,} elements")
    p.add_argument("--census", action="store_true",
                   help="count factor pairs sharing an A4 subgroup")
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("scan-trace", parents=[output], help="characteristic-2 trace scans")
    p.add_argument("--l", type=int, required=True, help="odd extension degree")
    p.set_defaults(func=cmd_scan_trace)

    p = sub.add_parser("suite", parents=[output], help="run the full verification suite")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-identical output)")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"trifactor: error: {exc}\n")
        return USAGE_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"trifactor: i/o error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:  # the outermost boundary: report, never crash
        sys.stderr.write(f"trifactor: internal error: {type(exc).__name__}: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
