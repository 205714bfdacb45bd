"""The regsimplex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-embed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed as a fresh interpreter
(``perfbench/workloads.py``) that imports regsimplex and writes the seeded
inputs; it is repeated and the median reported.  Then one client runs the
workload's items one after another (a closed loop), in seeded order, in
whole passes until ``--seconds`` is used up, with at least two passes.
Every output is checked: fixed-grid items against SHA-256 digests in
``digests.json``, seeded items against an independent route.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of one traced pass (see ``tracing.py``)
plus the tracing overhead, and the spans go to ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_work"

SETUP_REPEATS = 9
MIN_PASSES = 2
#: The containment query in ``hypergraph-contain`` that the unbounded
#: backtracking search does not finish is stopped after this many seconds.
PROBE_DEADLINE_S = 2.0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def read_steal():
    """(steal ticks, all ticks) summed over CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def machine(steal0, steal1) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    if steal0 and steal1:
        steal, total = (b - a for a, b in zip(steal0, steal1))
        info["steal_s"] = round(steal / os.sysconf("SC_CLK_TCK"), 2)
        info["steal_share"] = round(steal / total, 4) if total else 0.0
    return info


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds for a fresh interpreter to import regsimplex and write inputs."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(work)]
    start = time.perf_counter()
    # A blocking wait: waiting with a timeout polls, which rounds the
    # measured time up to the polling interval.
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        returncode = proc.wait()
    seconds = time.perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)
    return seconds


def load_items(work: Path) -> list[dict]:
    items = json.loads((work / "inputs.json").read_text())
    for item in items:
        if "argv" in item:
            item["argv"] = [a.replace("{work}", str(work)) for a in item["argv"]]
    return items


class Runner:
    """Runs items in process and verifies their outputs."""

    def __init__(self):
        from regsimplex import census, cli, hypergraph, lenz

        self.census, self.cli, self.hypergraph, self.lenz = census, cli, hypergraph, lenz
        self.digests = json.loads((HERE / "digests.json").read_text())
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def execute(self, item: dict) -> tuple[float, str, str | None]:
        """(seconds, output text, error) of one item."""
        buf = io.StringIO()
        error = None
        built = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if item["kind"] == "build":
                    built = self._build(item["partition"], item["k"])
                elif self.cli.main(item["argv"]) != 0:
                    error = "nonzero exit"
        except (Exception, SystemExit) as exc:  # an item failure, not ours
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if built is not None:
            text = json.dumps(built.to_json(), sort_keys=True)
        elif error is None and item["check"].get("out"):
            argv = item["argv"]
            text = Path(argv[argv.index("--out") + 1]).read_text()
        else:
            text = buf.getvalue()
        return seconds, text, error

    def _build(self, partition, k):
        config = self.lenz.build_even_config(sum(partition), len(partition), tuple(partition))
        return self.hypergraph.build_simplex_hypergraph(config, k)

    def _closed_total(self, partition, k) -> int:
        config = self.lenz.build_even_config(sum(partition), len(partition), tuple(partition))
        return self.census.count_structured(config, k).total

    def verdict(self, item: dict, text: str) -> str | None:
        """None if the output is correct, else the reason it is not."""
        cache_key = (item["key"], sha256(text))
        if cache_key not in self._verdicts:
            try:
                self._verdicts[cache_key] = self._check(item, text)
            except (ValueError, KeyError, TypeError) as exc:
                self._verdicts[cache_key] = f"unreadable output ({exc})"
        return self._verdicts[cache_key]

    def _check(self, item: dict, text: str) -> str | None:
        check = item["check"]
        kind = check["type"]
        if kind in ("digest", "build"):
            expected = self.digests.get(item["key"])
            if sha256(text) != expected:
                return "output digest differs from the recorded one"
            if check.get("verify"):
                lines = text.splitlines()
                if not lines or not all(line.endswith(" OK") for line in lines):
                    return "a verify line does not end in OK"
            if kind == "build":
                edges = len(json.loads(text)["edges"])
                if edges != self._closed_total(item["partition"], item["k"]):
                    return "edge count differs from census.count_structured"
            return None
        value = json.loads(text)
        if kind == "fk":
            if value["value"] != self._closed_total(check["partition"], check["k"]):
                return "formula fk differs from census.count_structured"
            return None
        if kind == "contains":
            if value != {"contains": check["expect"]}:
                return f"expected contains={check['expect']}"
            if not check["expect"]:
                return self._no_copy_certificate(item["argv"][2], item["argv"][3])
            return None
        raise ValueError(f"unknown check {kind!r}")

    @staticmethod
    def _no_copy_certificate(g_path: str, h_path: str) -> str | None:
        """Check that G's shadow graph is complete minus a matching M, so its
        clique number is v(G) - |M|, and that H's shadow is a larger clique."""
        G = json.loads(Path(g_path).read_text())
        H = json.loads(Path(h_path).read_text())

        def shadow(edges):
            return {p for e in edges for p in itertools.combinations(sorted(e), 2)}

        missing = set(itertools.combinations(range(G["n"]), 2)) - shadow(G["edges"])
        ends = [v for pair in missing for v in pair]
        complete_h = shadow(H["edges"]) == set(itertools.combinations(range(H["n"]), 2))
        if len(set(ends)) != len(ends) or not complete_h or H["n"] <= G["n"] - len(missing):
            return "query is not certified to have no copy"
        return None


def run_pass(runner: Runner, items, order, outputs, texts, tracer=None) -> float:
    """One pass in the given order; returns its wall time.  Appends
    (item index, seconds, CPU seconds, output digest, error) to outputs and
    keeps each distinct output text in texts."""
    start = time.perf_counter()
    for index in order:
        if tracer is not None:
            tracer.item = index
        cpu0 = cpu_with_children()
        seconds, text, error = runner.execute(items[index])
        cpu = cpu_with_children() - cpu0
        digest = sha256(text)
        texts.setdefault((index, digest), text)
        outputs.append((index, seconds, cpu, digest, error))
    return time.perf_counter() - start


def deadline_probe(work: Path) -> int | None:
    """Run the unbounded containment query in a child process.  Returns its
    exit code, or None if it hit the deadline and was killed."""
    from workloads import probe_argv

    argv = [a.replace("{work}", str(work)) for a in probe_argv()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-m", "regsimplex.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ) as proc:
        try:
            return proc.wait(timeout=PROBE_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def tail_percentile(items: int) -> int:
    """Highest whole percentile with at least ten of the items beyond it."""
    return int(100 - 1000 / items)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "regsimplex" / "__init__.py").is_file():
        print(f"regsimplex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    steal0 = read_steal()
    setup_times, input_digests = [], set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        setup_times.append(run_setup(args.workload, args.seed, work))
        input_digests.add(tree_digest(work))
    items = load_items(work)
    runner = Runner()
    rng = random.Random(f"order:{args.workload}:{args.seed}")

    outputs: list[tuple] = []
    texts: dict[tuple[int, str], str] = {}
    walls = []

    def order():
        return rng.sample(range(len(items)), len(items))

    budget = args.seconds / 2 if args.trace else args.seconds
    least = 1 if args.trace else MIN_PASSES
    began = time.perf_counter()
    while len(walls) < least or (
        time.perf_counter() - began + statistics.median(walls) <= budget
    ):
        walls.append(run_pass(runner, items, order(), outputs, texts))
    # Each item's wall and CPU time is its median over passes, so a burst
    # of machine noise that slows one pass barely moves the figures.
    per_item = [([], []) for _ in items]
    for index, seconds, cpu, _, _ in outputs:
        per_item[index][0].append(seconds)
        per_item[index][1].append(cpu)
    item_latency = [statistics.median(lat) for lat, _ in per_item]
    item_cpu = [statistics.median(cpu) for _, cpu in per_item]

    if args.trace:
        from tracing import Tracer, metric_unit

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall = run_pass(runner, items, order(), outputs, texts, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced_wall - sum(item_latency)

    # The deadline query is not an item: it counts in failed_frac (on a
    # deadline hit or a nonzero exit) but not in the JSON failed count.
    probes = probe_failures = deadline_hits = 0
    if args.workload == "hypergraph-contain":
        returncode = deadline_probe(work)
        probes = 1
        deadline_hits = int(returncode is None)
        probe_failures = int(returncode != 0)
    steal1 = read_steal()

    failed, reasons, seen = 0, {}, {}
    for index, _, _, digest, error in outputs:
        reason = error or runner.verdict(items[index], texts[(index, digest)])
        if reason:
            failed += 1
            reasons.setdefault(items[index]["key"], reason)
        seen.setdefault(index, set()).add(digest)
    # Every pass, the traced one too, must print the same bytes per item.
    stable = all(len(d) == 1 for d in seen.values())
    outputs_sha = sha256(json.dumps(sorted((i, sorted(d)) for i, d in seen.items())))
    correct = failed == 0 and stable and len(input_digests) == 1
    for key, reason in sorted(reasons.items())[:10]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    if len(input_digests) != 1:
        print("FAILED set-up: the same seed gave different inputs", file=sys.stderr)
    if not stable:
        print("FAILED outputs differ between passes", file=sys.stderr)

    attempted = len(outputs)
    q = tail_percentile(len(items))
    info = machine(steal0, steal1)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} items={len(items)} samples={len(walls) * len(items)}")
    print(f"# item latency = median over passes; item_tail_ms is p{q} of {len(items)} items")
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# setup_s each: " + " ".join(f"{v:.4f}" for v in setup_times))
    print("# wall_s per pass: " + " ".join(f"{v:.4f}" for v in walls))
    print(f"# outputs_sha256={outputs_sha}")
    print(f"# input_sha256={sorted(input_digests)[0]}")
    print(f"failed_frac {(failed + probe_failures) / (attempted + probes):.6g} ratio "
          f"({failed} failed of {attempted} items; {probe_failures} of {probes} "
          f"deadline queries failed, {deadline_hits} by the deadline)")

    if args.trace:
        layer["hypergraph.contains_deadline_hits"] = deadline_hits
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in sorted(layer.items())}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "machine": info, "metrics": layer})
        print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(item_latency),
            "item_p50_ms": 1000 * statistics.median(item_latency),
            "item_tail_ms": 1000 * statistics.quantiles(
                item_latency, n=100, method="inclusive")[q - 1],
            "cpu_s": sum(item_cpu),
            "peak_rss_mb": max(own, kids) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
