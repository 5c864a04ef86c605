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
import json
import os
import sys

from .factorisation import build_factorisation, build_one_factor, dump_factorisation
from .field import UsageError
from .groups import (
    a4_pair_census,
    char2_a4_a5_presence,
    classify_subgroup,
    generate_subgroup,
    is_transitive,
    psl_order,
)
from .hypergraph import pair_overlap, pair_overlap_algebraic
from .projline import base_map, orbit_map, point_str
from .verifier import (
    PROPERTIES,
    TheoremVerdict,
    char2_uniformity_scan,
    check_c1f,
    check_hb1f,
    check_u1f,
    default_config,
    field_for,
    overlap_distribution,
    parse_config,
    run_suite,
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


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _verdict_text(v: TheoremVerdict) -> str:
    comp = "indeterminate" if v.computed is None else str(v.computed).lower()
    lines = [
        f"{v.prop} q={v.q}: computed={comp} "
        f"predicted={str(v.predicted).lower()} "
        f"{'MISMATCH' if v.discrepancy else 'ok'}"
    ]
    if v.witness is not None:
        lines.append(f"  witness: {v.witness}")
    lines.append(f"  stats: {v.stats}")
    return "\n".join(lines) + "\n"


def cmd_construct(args) -> int:
    fact = build_factorisation(field_for(args.q))
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            dump_factorisation(fact, fh, human=args.human)
    else:
        dump_factorisation(fact, sys.stdout, human=args.human)
    return 0


def _workers(default: int) -> int:
    text = os.environ.get("TRIFACTOR_WORKERS", str(default))
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"TRIFACTOR_WORKERS={text!r} is not an integer") from None


def cmd_check(args) -> int:
    workers = _workers(1)
    fact = build_factorisation(field_for(args.q))
    if args.prop == "c1f":
        verdict = check_c1f(fact, mode=args.mode or "reduced")
    elif args.prop in ("u1f", "uc1f"):
        u1f, uc1f = check_u1f(fact)
        verdict = u1f if args.prop == "u1f" else uc1f
    else:
        verdict = check_hb1f(
            fact,
            mode=args.mode or "reduced",
            samples=args.samples,
            seed=args.seed,
            time_budget=args.time_budget,
            workers=workers,
        )
    if args.format == "json":
        _write_output(_json_dumps({"q": args.q, **verdict.to_dict()}), args.out)
    else:
        _write_output(_verdict_text(verdict), args.out)
    if verdict.discrepancy:
        return 1
    if verdict.indeterminate:
        return 2
    return 0


def cmd_overlap(args) -> int:
    ctx = field_for(args.q)
    if args.alpha is None:
        hist = overlap_distribution(build_factorisation(ctx))
        if args.format == "json":
            payload = {"q": args.q, "histogram": {str(k): v for k, v in hist.items()}}
            _write_output(_json_dumps(payload), args.out)
        else:
            _write_output(f"overlap histogram q={args.q}: {hist}\n", args.out)
        return 0
    a = ctx.parse_element(args.alpha)
    b = ctx.parse_element(args.beta if args.beta is not None else "0")
    alg = pair_overlap_algebraic(ctx, a, b)
    comb = pair_overlap(build_one_factor(ctx, 1, 0), build_one_factor(ctx, a, b))
    agree = alg.count == comb.count
    if args.format == "json":
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
        _write_output(_json_dumps(payload), args.out)
    else:
        direct = [point_str(ctx, x) for x in alg.direct_solutions]
        inverse = [point_str(ctx, x) for x in alg.inverse_solutions]
        _write_output(
            f"overlap q={args.q} label=({ctx.element_str(a)};{ctx.element_str(b)}): "
            f"algebraic={alg.count} combinatorial={comb.count} "
            f"{'ok' if agree else 'MISMATCH'}\n"
            f"  direct solutions: {direct}\n"
            f"  inverse solutions: {inverse}\n",
            args.out,
        )
    return 0 if agree else 1


def cmd_subgroup(args) -> int:
    ctx = field_for(args.q)
    f = base_map(ctx)
    if args.census:
        res = a4_pair_census(build_factorisation(ctx))
        payload = {"q": args.q, **res}
        if ctx.p == 2:
            payload.update(char2_a4_a5_presence(ctx))
        _write_output(
            _json_dumps(payload) if args.format == "json" else f"{payload}\n",
            args.out,
        )
        return 0
    if args.alpha is not None:
        labels = [(ctx.parse_element(args.alpha),
                   ctx.parse_element(args.beta if args.beta is not None else "0"))]
    else:
        labels = [fac.label for fac in build_factorisation(ctx).factors[1:]]
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
    if args.format == "json":
        _write_output(_json_dumps(payload), args.out)
    else:
        lines = [f"subgroups q={args.q} (group order {psl_order(ctx)}):"]
        for r in rows:
            lines.append(
                f"  ({r['alpha']};{r['beta']}): {r['class']} order={r['order']} "
                f"transitive={r['transitive']}"
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_scan_trace(args) -> int:
    scan = char2_uniformity_scan(args.l)
    if args.format == "json":
        _write_output(_json_dumps(scan), args.out)
    else:
        _write_output(
            f"trace scan l={args.l}: witnesses={len(scan['witnesses_eq4'])} "
            f"all_trace1={scan['all_trace1']} "
            f"roots={scan['poly_root_count']}<={scan['root_bound']}\n",
            args.out,
        )
    return 0


def cmd_suite(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = default_config()
    cfg.workers = _workers(cfg.workers)
    cfg.include_timings = args.timings
    report = run_suite(cfg)
    text = report.to_json() if args.format == "json" else report.to_text()
    _write_output(text, args.out)
    return report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="trifactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("construct", help="build and dump a factorisation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--human", action="store_true",
                   help="print infinity as 'inf' instead of its index")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="verify a classification property")
    p.add_argument("prop", choices=PROPERTIES)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=("reduced", "full", "sampled"))
    p.add_argument("--samples", type=int, help="sample count for sampled mode")
    p.add_argument("--seed", type=int, help="seed for sampled mode")
    p.add_argument("--time-budget", type=float, default=10.0,
                   help="seconds per cycle search")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("overlap", help="pair overlap of the base factor")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", help="label alpha as a coefficient list")
    p.add_argument("--beta", help="label beta as a coefficient list")
    add_common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("subgroup", help="classify generated subgroups")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", help="single label alpha (default: sweep)")
    p.add_argument("--beta", help="single label beta")
    p.add_argument("--exact", action="store_true",
                   help="exact closure instead of early exit")
    p.add_argument("--census", action="store_true",
                   help="count factor pairs sharing an A4 subgroup")
    add_common(p)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("scan-trace", help="characteristic-2 trace scans")
    p.add_argument("--l", type=int, required=True, help="odd extension degree")
    add_common(p)
    p.set_defaults(func=cmd_scan_trace)

    p = sub.add_parser("suite", help="run the full verification suite")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-identical output)")
    add_common(p)
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
