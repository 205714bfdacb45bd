"""Record the SHA-256 of every fixed-grid item's output into digests.json.

    python3 perfbench/record_digests.py

Items run serially (``--workers 1``), so the benchmark's check of the pooled
``verify-ticks`` items also pins that stdout does not depend on the worker
count.  Recording refuses a ``verify`` report with a line not ending in OK.
Re-record only when an output format changes on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, SRC, Runner, load_items, run_setup, sha256


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS:
        work = OUT / f"record-{workload}"
        run_setup(workload, 0, work)
        runner = Runner()
        for item in load_items(work):
            if item["check"]["type"] not in ("digest", "build"):
                continue
            argv = item.get("argv", [])
            if "--workers" in argv:
                argv[argv.index("--workers") + 1] = "1"
            _, text, error = runner.execute(item)
            if error:
                raise SystemExit(f"{item['key']}: {error}")
            if item["check"].get("verify") and not all(
                line.endswith(" OK") for line in text.splitlines()
            ):
                raise SystemExit(f"{item['key']}: verify report is not all OK")
            digests[item["key"]] = sha256(text)
        shutil.rmtree(work)
    (HERE / "digests.json").write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
