"""Batch front end: generate configurations, count, evaluate formulas,
cross-validate the counting routes, and emit JSON/CSV reports.

Output is deterministic: JSON with sorted keys, ticks ascending, LF line
endings, and the same bytes whatever --workers says.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import census, formulas, hypergraph, lenz


def _parse_range(spec: str) -> range:
    """Inclusive "a..b" sweeps; a bare integer is a singleton."""
    a, sep, b = spec.partition("..")
    try:
        lo = int(a)
        values = range(lo, (int(b) if sep else lo) + 1)
    except ValueError:
        raise ValueError(f"--n: expected an integer or a..b, got {spec!r}") from None
    if not values:
        raise ValueError(f"--n: empty range {spec!r}")
    return values


# The tick census is a serial clique count, faster than starting a process
# pool, so --workers has nothing to set.  It stays, still checked, because
# existing command lines (the benchmark's verify-ticks items among them) pass
# it, and reports must stay byte-identical across worker counts.
_WORKERS_HELP = "accepted for compatibility and ignored; must be at least 1"


def _positive_int(spec: str) -> int:
    value = int(spec)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _choose_partition(n: int, r: int, k: int) -> tuple[int, ...]:
    if k == 3:
        return lenz.theorem12_partition(n, r)
    return formulas.maximize_f_k(n, r, k).argmax[0]


def cmd_generate(args) -> int:
    if args.odd:
        config = lenz.build_odd_config(args.n, args.r)
    else:
        partition = _choose_partition(args.n, args.r, args.k)
        config = lenz.build_even_config(args.n, args.r, partition)
    _emit(_dump_json(lenz.config_to_json(config)), args.out)
    return 0


def cmd_count(args) -> int:
    with open(args.infile) as fh:
        config = lenz.config_from_json(json.load(fh))
    side_sq = Fraction(args.side_sq) if args.side_sq else None
    if args.method == "closed":
        report = census.count_structured(config, args.k, side_sq=side_sq)
    elif args.method == "ticks":
        report = census.brute_force_structured(config, args.k, side_sq=side_sq)
    else:  # coords
        pts = lenz.embed_config(config)
        from .exactnum import Quad3

        q3_side = Quad3.of(side_sq) if side_sq is not None else None
        total = census.count_brute_force(pts, args.k, side_sq=q3_side)
        _emit(f"{total}\n" if args.csv else _dump_json({"total": total}), args.out)
        return 0
    text = report.to_csv_row() + "\n" if args.csv else _dump_json(report.to_json())
    _emit(text, args.out)
    return 0


def _parse_partition(spec: Optional[str]) -> tuple[int, ...]:
    if spec is None:
        raise ValueError("--partition is required for --which fk and unit")
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise ValueError(
            f"--partition: expected comma-separated integers, got {spec!r}"
        ) from None


def cmd_formula(args) -> int:
    if args.which in ("t2r", "cor13", "leading") and (args.n is None or args.r is None):
        raise ValueError(f"--n and --r are required for --which {args.which}")
    if args.which == "fk":
        res = formulas.eval_f_k(_parse_partition(args.partition), args.k)
    elif args.which == "t2r":
        res = formulas.eval_T2r_closed(args.n, args.r)
    elif args.which == "cor13":
        res = formulas.eval_corollary13(args.n, args.r)
    elif args.which == "unit":
        res = formulas.eval_unit_triangle_formula(_parse_partition(args.partition))
    else:  # leading
        value = formulas.asymptotic_leading(args.n, args.r, args.k)
        _emit(_dump_json({"value": str(value)}), args.out)
        return 0
    payload = {"value": res.value}
    if res.terms is not None:
        payload["terms"] = list(res.terms)
    if res.argmax is not None:
        payload["argmax"] = [list(v) for v in res.argmax]
    _emit(_dump_json(payload), args.out)
    return 0


def cmd_maximize(args) -> int:
    res = formulas.maximize_f_k(args.n, args.r, args.k)
    payload = {
        "value": res.value,
        "argmax": [list(v) for v in res.argmax],
        # maximize_f_k is exact, so there is no search boundary to touch; the
        # key stays, always false, so the output keeps its recorded bytes.
        "boundary_touched": False,
    }
    if args.csv:
        rows = [
            f"{args.n},{args.r},{args.k},{res.value},\"{' '.join(map(str, v))}\""
            for v in res.argmax
        ]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(_dump_json(payload), args.out)
    return 0


def run_verify(n_range, r: int, k: int, workers: int = 1):
    """Cross-validate all counting routes for each n; returns (ok, report).

    workers is accepted and ignored (see _WORKERS_HELP).
    """
    lines = []
    ok = True
    for n in n_range:
        partition = _choose_partition(n, r, k)
        config = lenz.build_even_config(n, r, partition)
        closed = census.count_structured(config, k)
        ticks = census.brute_force_structured(config, k)
        formula = formulas.eval_f_k(partition, k).value
        values = {"closed": closed.total, "ticks": ticks.total, "formula": formula}
        if closed.to_json() != ticks.to_json():
            ok = False
            lines.append(
                f"n={n} r={r} k={k} partition={partition} MISMATCH "
                f"closed vs ticks: {closed.to_json()} != {ticks.to_json()}"
            )
            continue
        if max(partition) <= 12:
            pts = lenz.embed_config(config)
            values["coords"] = census.count_brute_force(pts, k)
        distinct = set(values.values())
        shown = " ".join(f"{name}={values[name]}" for name in sorted(values))
        if len(distinct) == 1:
            lines.append(f"n={n} r={r} k={k} partition={partition} {shown} OK")
        else:
            ok = False
            lines.append(f"n={n} r={r} k={k} partition={partition} {shown} MISMATCH")
    return ok, "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    """One report block per --r value, in the order given."""
    n_range = _parse_range(args.n)
    for r in args.r:
        if r < args.k:
            raise ValueError(f"--r {r}: need r >= k = {args.k}")
    results = [run_verify(n_range, r, args.k) for r in args.r]
    _emit("".join(report for _, report in results), args.out)
    return 0 if all(ok for ok, _ in results) else 1


def cmd_hypergraph(args) -> int:
    if args.make_pattern:
        r, k = args.make_pattern
        H = hypergraph.make_pattern_H(r, k)
        _emit(_dump_json(H.to_json()), args.out)
        return 0
    if args.blowup is not None:
        with open(args.infile) as fh:
            H = hypergraph.Hypergraph.from_json(json.load(fh))
        _emit(_dump_json(hypergraph.blowup(H, args.blowup).to_json()), args.out)
        return 0
    g_path, h_path = args.contains
    with open(g_path) as fh:
        G = hypergraph.Hypergraph.from_json(json.load(fh))
    with open(h_path) as fh:
        H = hypergraph.Hypergraph.from_json(json.load(fh))
    found = hypergraph.contains_copy(G, H)
    _emit(_dump_json({"contains": found}), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsimplex",
        description="Exact regular-simplex censuses on orthogonal-circle configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--csv", action="store_true", help="tabular output")

    p = sub.add_parser("generate", help="build a configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--odd", action="store_true", help="odd-dimension skeleton")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("count", help="census a configuration file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["coords", "ticks", "closed"], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--side-sq", help="restrict to this squared side (rational)")
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("formula", help="evaluate a closed form")
    p.add_argument("--which", choices=["fk", "t2r", "cor13", "unit", "leading"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--partition", help="comma-separated entries, for fk/unit")
    common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("maximize", help="exact maximum of f_k over partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("verify", help="cross-validate counting routes")
    p.add_argument("--n", required=True, help="single value or inclusive a..b")
    p.add_argument("--r", type=int, nargs="+", required=True, help="one or more r")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hypergraph", help="pattern / blowup / containment")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--make-pattern", nargs=2, type=int, metavar=("R", "K"))
    group.add_argument("--blowup", type=int, metavar="T")
    group.add_argument("--contains", nargs=2, metavar=("G", "H"))
    p.add_argument("--in", dest="infile", help="hypergraph JSON, for --blowup")
    common(p)
    p.set_defaults(func=cmd_hypergraph)

    return parser


def main(argv=None) -> int:
    """Run one command; bad input or an unreadable file is one stderr line
    and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"regsimplex: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
