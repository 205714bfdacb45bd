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
from typing import Collection, Optional

from . import census, formulas, hypergraph, lenz
from .exactnum import Quad3


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
    try:
        value = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {spec!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str, from_json):
    """Read one input file and check it at the JSON boundary with from_json.

    A ValueError is prefixed with the path; an OSError already names it.
    """
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _choose_partition(n: int, r: int, k: int) -> tuple[int, ...]:
    if k == 3:
        return lenz.theorem12_partition(n, r)
    return formulas.maximize_f_k(n, r, k).argmax[0]


def cmd_generate(args) -> tuple[int, str]:
    if args.odd:
        if args.k is not None:
            raise ValueError("--k does not go with --odd")
        config = lenz.build_odd_config(args.n, args.r)
    else:
        partition = _choose_partition(args.n, args.r, 3 if args.k is None else args.k)
        config = lenz.build_even_config(args.n, args.r, partition)
    return 0, _dump_json(lenz.config_to_json(config))


def _positive_rational(spec: str) -> Fraction:
    try:
        value = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise ValueError(f"--side-sq: expected a positive rational, got {spec!r}")
    return value


def cmd_count(args) -> tuple[int, str]:
    side_sq = None if args.side_sq is None else _positive_rational(args.side_sq)
    config = _read_json(args.infile, lenz.config_from_json)
    if args.method == "coords":
        q3_side = Quad3.of(side_sq) if side_sq is not None else None
        total = census.count_brute_force(config, args.k, q3_side)
        return 0, f"{total}\n" if args.csv else _dump_json({"total": total})
    if args.method == "closed":
        report = census.count_structured(config, args.k, side_sq=side_sq)
    else:  # ticks
        report = census.brute_force_structured(config, args.k, side_sq=side_sq)
    return 0, report.to_csv_row() + "\n" if args.csv else _dump_json(report.to_json())


def _parse_partition(spec: Optional[str]) -> tuple[int, ...]:
    if spec is None:
        raise ValueError("--partition is required for --which fk and unit")
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise ValueError(
            f"--partition: expected comma-separated integers, got {spec!r}"
        ) from None


#: The options each formula reads; giving any other is an error.
_FORMULA_OPTIONS = {
    "fk": ("k", "partition"),
    "unit": ("partition",),
    "t2r": ("n", "r"),
    "cor13": ("n", "r"),
    "leading": ("n", "r", "k"),
}


def cmd_formula(args) -> tuple[int, str]:
    reads = _FORMULA_OPTIONS[args.which]
    for option in ("n", "r", "k", "partition"):
        if getattr(args, option) is not None and option not in reads:
            raise ValueError(f"--{option} does not go with --which {args.which}")
    if args.which in ("t2r", "cor13", "leading") and (args.n is None or args.r is None):
        raise ValueError(f"--n and --r are required for --which {args.which}")
    k = 3 if args.k is None else args.k
    if args.which == "leading":
        value = formulas.asymptotic_leading(args.n, args.r, k)
        return 0, _dump_json({"value": str(value)})
    if args.which == "fk":
        res = formulas.eval_f_k(_parse_partition(args.partition), k)
    elif args.which == "t2r":
        res = formulas.eval_T2r_closed(args.n, args.r)
    elif args.which == "cor13":
        res = formulas.eval_corollary13(args.n, args.r)
    else:  # unit
        res = formulas.eval_unit_triangle_formula(_parse_partition(args.partition))
    payload = {"value": res.value}
    if res.terms is not None:
        payload["terms"] = list(res.terms)
    if res.argmax is not None:
        payload["argmax"] = [list(v) for v in res.argmax]
    return 0, _dump_json(payload)


def cmd_maximize(args) -> tuple[int, str]:
    res = formulas.maximize_f_k(args.n, args.r, args.k)
    if args.csv:
        rows = [
            f"{args.n},{args.r},{args.k},{res.value},\"{' '.join(map(str, v))}\""
            for v in res.argmax
        ]
        return 0, "\n".join(rows) + "\n"
    return 0, _dump_json({
        "value": res.value,
        "argmax": [list(v) for v in res.argmax],
        # maximize_f_k is exact, so there is no search boundary to touch; the
        # key stays, always false, so the output keeps its recorded bytes.
        "boundary_touched": False,
    })


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
            values["coords"] = census.count_brute_force(config, k)
        distinct = set(values.values())
        shown = " ".join(f"{name}={values[name]}" for name in sorted(values))
        if len(distinct) == 1:
            lines.append(f"n={n} r={r} k={k} partition={partition} {shown} OK")
        else:
            ok = False
            lines.append(f"n={n} r={r} k={k} partition={partition} {shown} MISMATCH")
    return ok, "\n".join(lines) + "\n"


def cmd_verify(args) -> tuple[int, str]:
    """One report block per --r value, in the order given."""
    n_range = _parse_range(args.n)
    for r in args.r:
        if r < args.k:
            raise ValueError(f"--r {r}: need r >= k = {args.k}")
        if r > n_range[0]:
            raise ValueError(f"--r {r}: need n >= r, but --n starts at {n_range[0]}")
    results = [run_verify(n_range, r, args.k) for r in args.r]
    code = 0 if all(ok for ok, _ in results) else 1
    return code, "".join(report for _, report in results)


def cmd_hypergraph(args) -> tuple[int, str]:
    if args.blowup is None and args.infile is not None:
        raise ValueError("--in goes only with --blowup")
    if args.make_pattern:
        H = hypergraph.make_pattern_H(*args.make_pattern)
    elif args.blowup is not None:
        if args.infile is None:
            raise ValueError("--blowup needs --in")
        H = _read_json(args.infile, hypergraph.Hypergraph.from_json)
        H = hypergraph.blowup(H, args.blowup)
    else:
        G, H = (_read_json(path, hypergraph.Index.from_json) for path in args.contains)
        return 0, _dump_json({"contains": hypergraph.contains_copy(G, H)})
    return 0, _dump_json(H.to_json())


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, help="default 3; not with --odd")
    p.add_argument("--odd", action="store_true", help="odd-dimension skeleton")


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["coords", "ticks", "closed"], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--side-sq", help="restrict to this squared side (positive rational)")
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    p.add_argument("--csv", action="store_true", help="one CSV line of counts")


def _formula_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", choices=["fk", "t2r", "cor13", "unit", "leading"], required=True)
    p.add_argument("--n", type=int, help="for t2r/cor13/leading")
    p.add_argument("--r", type=int, help="for t2r/cor13/leading")
    p.add_argument("--k", type=int, help="for fk/leading, default 3")
    p.add_argument("--partition", help="comma-separated entries, for fk/unit")


def _maximize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--csv", action="store_true", help="one CSV line per maximizer")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", required=True, help="single value or inclusive a..b")
    p.add_argument("--r", type=int, nargs="+", required=True, help="one or more r")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)


def _hypergraph_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--make-pattern", nargs=2, type=int, metavar=("R", "K"))
    group.add_argument("--blowup", type=int, metavar="T")
    group.add_argument("--contains", nargs=2, metavar=("G", "H"))
    p.add_argument("--in", dest="infile", help="hypergraph JSON, required with --blowup")


#: Subcommand -> (help line, argument adder, command), in usage order.
_COMMANDS = {
    "generate": ("build a configuration", _generate_arguments, cmd_generate),
    "count": ("census a configuration file", _count_arguments, cmd_count),
    "formula": ("evaluate a closed form", _formula_arguments, cmd_formula),
    "maximize": ("exact maximum of f_k over partitions", _maximize_arguments, cmd_maximize),
    "verify": ("cross-validate counting routes", _verify_arguments, cmd_verify),
    "hypergraph": ("pattern / blowup / containment", _hypergraph_arguments, cmd_hypergraph),
}


def build_parser(populate: Collection[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The regsimplex parser.  Every subcommand is registered with its help
    line; only those named in populate (default all) get -h, their arguments,
    --out and the command to run.  The others carry just a name and a help
    line, which is all that the top-level usage, help and error texts read."""
    parser = argparse.ArgumentParser(
        prog="regsimplex",
        description="Exact regular-simplex censuses on orthogonal-circle configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, command) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, add_help=name in populate)
        if name in populate:
            add_arguments(p)
            p.add_argument("--out", help="write output to a file instead of stdout")
            p.set_defaults(func=command)
    return parser


def main(argv=None) -> int:
    """Run one command and write its text to --out or stdout; bad input or an
    unreadable or unwritable file is one stderr line and exit code 2.

    The top-level parser takes no option values, so the subcommand argparse
    dispatches to, if any, is the first argument that names one; only that
    subcommand's arguments are built.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    dispatched = [arg for arg in argv if arg in _COMMANDS][:1]
    args = build_parser(dispatched).parse_args(argv)
    try:
        code, text = args.func(args)
        _emit(text, args.out)
        return code
    except (OSError, ValueError) as exc:
        print(f"regsimplex: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
