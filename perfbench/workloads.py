"""Workload definitions and seeded input generation for the regsimplex benchmark.

Each workload is a list of items.  An item is either a CLI invocation
(``regsimplex.cli.main(argv)``) or, for the one step the CLI does not expose,
a call to ``hypergraph.build_simplex_hypergraph``.  Every item carries the
check that decides whether its output is correct.

Run as a script, this module is the set-up step that the benchmark times: a
fresh interpreter imports regsimplex, builds the inputs of one workload from
a seed and writes them (``inputs.json`` plus any hypergraph files) into a
directory.  The same seed always gives the same bytes.

    python3 perfbench/workloads.py --workload hypergraph-contain --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-embed", "verify-ticks", "maximize-sweep", "hypergraph-contain")

#: Placeholder for the per-run work directory inside item argv lists.
WORK = "{work}"

#: Pool size of ``verify-ticks``: two workers, never more than the machine has.
TICK_WORKERS = min(2, os.cpu_count() or 1)

#: Hosts of the planted-copy queries: (partition, k).
PLANTED_HOSTS = (((8, 8, 8), 3), ((6, 6, 6, 6), 3), ((4, 4, 4, 4), 4))
#: Host of the random queries.  Its 4 points per circle sit at quarter turns,
#: so the only pairs no triangle covers are the two diameters of each full
#: circle; a 6-vertex query whose edges cover all 15 pairs therefore has no
#: copy (the host's shadow graph has clique number 9 - 4 = 5).
FALSE_HOST = ((4, 4, 1), 3)
#: Host and pattern of the containment query the unbounded search cannot
#: finish; it runs in a child process under a deadline.
PROBE_HOST = ((12, 12, 1), 3)
PROBE_PATTERN = (2, 3, 2)  # make_pattern_H(2, 3), blown up 2 times
#: Hosts built in-process each pass: (partition, k).
BUILD_HOSTS = (
    ((4, 4, 4), 3), ((8, 8, 8), 3), ((10, 10, 10, 10), 3), ((12, 12, 1), 3),
    ((4, 4, 4, 4), 4), ((5, 5, 5, 5, 5), 4), ((3, 3, 3, 3, 3, 3), 4),
)
#: (r, k) of the make-pattern items; each is also blown up twice.
PATTERNS = ((2, 3), (3, 3), (4, 3), (3, 4))
PLANTED_PER_HOST = 4
PLANTED_VERTICES = 8
FALSE_QUERIES = 16
FALSE_VERTICES = 6
#: Six triples covering every pair of 6 vertices.
PAIR_COVER = ((0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5))


def _verify_item(n: int, r: int, k: int, workers: int) -> dict:
    argv = ["verify", "--n", str(n), "--r", str(r), "--k", str(k)]
    return {
        "kind": "cli",
        "key": " ".join(argv),
        "argv": argv + ["--workers", str(workers)],
        "check": {"type": "digest", "verify": True},
    }


def _cli_item(argv: list[str], check: dict, key: str | None = None) -> dict:
    return {"kind": "cli", "key": key or " ".join(argv), "argv": argv, "check": check}


def _host_name(partition, k) -> str:
    return "host-" + "-".join(map(str, partition)) + f"-k{k}.json"


def verify_embed() -> list[dict]:
    """Every partition has max <= 12, so the coordinate oracle runs on each."""
    items = [_verify_item(n, 3, 3, 1) for n in range(3, 37)]
    items += [_verify_item(n, 4, 3, 1) for n in range(4, 49, 4)]
    items += [_verify_item(n, 5, 4, 1) for n in range(20, 33, 4)]
    return items


def verify_ticks() -> list[dict]:
    """Partitions exceed 12, so only the closed form and ticks run."""
    return [_verify_item(n, 3, 3, TICK_WORKERS) for n in range(60, 97)]


def maximize_sweep(rng: random.Random) -> list[dict]:
    items = []
    for r in range(3, 8):
        step = 24 if r == 7 else 12
        for k in range(3, min(r, 5) + 1):
            for n in range(step, 121, step):
                argv = ["maximize", "--n", str(n), "--r", str(r), "--k", str(k)]
                items.append(_cli_item(argv, {"type": "digest"}))
    for r in range(3, 17):
        for k in range(3, min(r, 8) + 1):
            partition = [rng.randint(1, 24) for _ in range(r)]
            spec = ",".join(map(str, partition))
            argv = ["formula", "--which", "fk", "--k", str(k), "--partition", spec]
            items.append(
                _cli_item(argv, {"type": "fk", "partition": partition, "k": k})
            )
    return items


def _build_host(partition, k):
    from regsimplex import hypergraph, lenz

    config = lenz.build_even_config(sum(partition), len(partition), tuple(partition))
    return hypergraph.build_simplex_hypergraph(config, k)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _planted_query(G, rng: random.Random):
    """The sub-hypergraph G induces on seeded vertices, relabeled: it has a
    copy in G.  Induced queries keep the search short; a sparse sample of
    the same edges can take seconds on one seed and milliseconds on the next."""
    from regsimplex.hypergraph import Hypergraph

    chosen = rng.sample(range(G.n), PLANTED_VERTICES)
    edges = [e for e in G.edges if e <= set(chosen)]
    labels = list(range(PLANTED_VERTICES))
    rng.shuffle(labels)
    relabel = dict(zip(chosen, labels))
    return Hypergraph(
        PLANTED_VERTICES, G.k, frozenset(frozenset(relabel[v] for v in e) for e in edges)
    )


def _covering_query(rng: random.Random):
    """A seeded relabeling of a fixed 6-triple cover of all 15 vertex pairs.

    Relabeling keeps the search cost nearly the same on every seed, where
    independently drawn covers differ by half from one seed to the next."""
    from regsimplex.hypergraph import Hypergraph

    labels = rng.sample(range(FALSE_VERTICES), FALSE_VERTICES)
    return Hypergraph(
        FALSE_VERTICES, 3, frozenset(frozenset(labels[v] for v in e) for e in PAIR_COVER)
    )


def hypergraph_contain(rng: random.Random, work: Path) -> list[dict]:
    """Builds, patterns, blowups and containment queries on set-up files."""
    from regsimplex import hypergraph

    items = []
    for partition, k in BUILD_HOSTS:
        items.append({
            "kind": "build",
            "key": f"build {','.join(map(str, partition))} k={k}",
            "partition": list(partition),
            "k": k,
            "check": {"type": "build"},
        })
    for r, k in PATTERNS:
        name = f"pattern-{r}-{k}.json"
        (work / name).write_text(_dump(hypergraph.make_pattern_H(r, k).to_json()))
        argv = ["hypergraph", "--make-pattern", str(r), str(k)]
        items.append(_cli_item(
            argv + ["--out", f"{WORK}/out-{name}"], {"type": "digest", "out": True},
            key=" ".join(argv),
        ))
        argv = ["hypergraph", "--blowup", "2", "--in", f"{WORK}/{name}"]
        items.append(_cli_item(
            argv + ["--out", f"{WORK}/out-blowup-{name}"], {"type": "digest", "out": True},
            key=f"hypergraph --blowup 2 pattern {r} {k}",
        ))
    hosts = {}
    for partition, k in PLANTED_HOSTS + (FALSE_HOST, PROBE_HOST):
        G = _build_host(partition, k)
        hosts[(partition, k)] = G
        (work / _host_name(partition, k)).write_text(_dump(G.to_json()))
    queries = []
    for partition, k in PLANTED_HOSTS:
        for _ in range(PLANTED_PER_HOST):
            queries.append((partition, k, _planted_query(hosts[(partition, k)], rng), True))
    for _ in range(FALSE_QUERIES):
        queries.append((*FALSE_HOST, _covering_query(rng), False))
    for i, (partition, k, H, expect) in enumerate(queries):
        name = f"query-{i}.json"
        (work / name).write_text(_dump(H.to_json()))
        host = f"{WORK}/{_host_name(partition, k)}"
        argv = ["hypergraph", "--contains", host, f"{WORK}/{name}"]
        items.append(_cli_item(
            argv, {"type": "contains", "expect": expect}, key=f"contains query-{i}"
        ))
    r, k, t = PROBE_PATTERN
    probe = hypergraph.blowup(hypergraph.make_pattern_H(r, k), t)
    (work / "probe.json").write_text(_dump(probe.to_json()))
    return items


def probe_argv() -> list[str]:
    """CLI argv of the deadline query (paths relative to the work directory)."""
    return ["hypergraph", "--contains", f"{WORK}/{_host_name(*PROBE_HOST)}",
            f"{WORK}/probe.json"]


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Build the items of one workload; writes any input files into work."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-embed":
        return verify_embed()
    if workload == "verify-ticks":
        return verify_ticks()
    if workload == "maximize-sweep":
        return maximize_sweep(rng)
    if workload == "hypergraph-contain":
        return hypergraph_contain(rng, work)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description="generate one workload's inputs")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    import regsimplex  # noqa: F401  (set-up time includes the import)

    args.out.mkdir(parents=True, exist_ok=True)
    items = generate(args.workload, args.seed, args.out)
    (args.out / "inputs.json").write_text(_dump(items))
    return 0


if __name__ == "__main__":
    sys.exit(main())
