"""Self-tests of the benchmark (about two minutes on two cores).

    python3 -m pytest perfbench/test_bench.py -q

They check that a seed fixes the inputs, that tracing changes no output, and
that the exact per-layer counters repeat across runs and equal their closed
forms where one exists.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import OUT, run_setup, tree_digest  # noqa: E402
from workloads import (  # noqa: E402
    BUILD_HOSTS, FALSE_QUERIES, PLANTED_HOSTS, PLANTED_PER_HOST, WORKLOADS,
)

EXACT = ("census.ticks_subsets", "census.coords_subsets", "exactnum.quad3_ops",
         "formulas.eval_f_k_calls")


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """(result line, outputs digest) of one shortest run (two passes untraced,
    one untraced and one traced with tracing)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    digest = next(line for line in lines if line.startswith("# outputs_sha256="))
    return result, digest


def layer(workload: str, seed: int) -> dict[str, float]:
    return {k: v["value"] for k, v in bench(workload, seed, 1)[0]["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    digests = []
    for seed in (7, 7, 8):
        work = OUT / f"selftest-{workload}-{len(digests)}"
        run_setup(workload, seed, work)
        digests.append(tree_digest(work))
        shutil.rmtree(work)
    assert digests[0] == digests[1]
    if workload in ("maximize-sweep", "hypergraph-contain"):
        assert digests[0] != digests[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload):
    assert bench(workload, 1, 0)[1] == bench(workload, 1, 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat(workload):
    first, second = layer(workload, 1), layer(workload, 2)
    for name in EXACT:
        assert first[name] == second[name], name


def test_closed_forms_verify_embed():
    m = layer("verify-embed", 1)
    subsets = sum(comb(n, 3) for n in range(3, 37)) + sum(comb(n, 3) for n in range(4, 49, 4))
    subsets += sum(comb(n, 4) for n in range(20, 33, 4))
    assert m["census.coords_subsets"] == m["census.ticks_subsets"] == subsets
    assert m["census.predicate_calls"] == subsets  # serial: every call is visible
    assert m["census.coords_hits"] == m["census.ticks_hits"]
    assert m["formulas.windows_tried"] == 4  # one window per k=4 item
    items = 34 + 12 + 4
    assert m["formulas.eval_f_k_calls"] == items + m["formulas.partitions_examined"]
    assert m["cli.commands"] == items


def test_closed_forms_verify_ticks():
    m = layer("verify-ticks", 1)
    assert m["census.ticks_subsets"] == sum(comb(n, 3) for n in range(60, 97))
    assert m["census.coords_subsets"] == m["exactnum.quad3_ops"] == 0
    assert m["formulas.eval_f_k_calls"] == 37
    assert m["census.predicate_calls"] == 0  # pooled calls happen in the workers


def test_closed_forms_maximize_sweep():
    m = layer("maximize-sweep", 1)
    maximize_items = 9 * 10 + 3 * 5
    fk_items = sum(min(r, 8) - 2 for r in range(3, 17))
    assert m["exactnum.quad3_ops"] == m["census.ticks_subsets"] == 0
    assert m["formulas.maximize_calls"] == maximize_items
    assert m["formulas.eval_f_k_calls"] == m["formulas.partitions_examined"] + fk_items


def test_closed_forms_hypergraph_contain():
    from regsimplex import census, lenz

    m = layer("hypergraph-contain", 1)
    edges = 0
    for partition, k in BUILD_HOSTS:
        config = lenz.build_even_config(sum(partition), len(partition), partition)
        edges += census.count_structured(config, k).total
    assert m["hypergraph.build_edges"] == edges
    assert m["census.predicate_calls"] == sum(comb(sum(p), k) for p, k in BUILD_HOSTS)
    assert m["hypergraph.contains_calls"] == PLANTED_PER_HOST * len(PLANTED_HOSTS) + FALSE_QUERIES
    assert m["hypergraph.contains_deadline_hits"] == 1
