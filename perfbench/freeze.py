"""Rebuild frozen.json: the drift reference for the pooled workloads.

    python3 perfbench/freeze.py

Run from the checkout root. Runs one request on every pool spec of
poly-expand (library, n = 20) and sampled-cli (``sltrans solve``, n = 10),
by the same code path as a benchmark run (workloads.request), and stores
the eigenvalues with a digest of the spec. The values are whatever the
code under src/ returns, so they are a drift reference, not an oracle:
rebuild only when a change is meant to move the answers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))
    import specs
    from run import problem_files
    from workloads import N_EIGS, request

    tmp = root / ".perfbench-tmp" / "freeze"
    tmp.mkdir(parents=True, exist_ok=True)
    out = {"note": "drift reference: eigenvalues returned by the code at the "
                   "commit that froze them, not an independent oracle"}
    try:
        for workload in specs.POOLS:
            # Any seed's run covers the whole pool once.
            entries = specs.run_specs(workload, 0)
            digests = {e["pool_index"]: specs.spec_digest(e["spec"]) for e in entries}
            rows = []
            for entry in problem_files(entries, tmp):
                i = entry["pool_index"]
                rec = request(workload, entry, N_EIGS[workload], tmp)
                if rec.get("exit_code", 0) != 0:
                    raise SystemExit(f"{workload} pool spec {i}: exit code {rec['exit_code']}")
                rows.append({"pool_index": i, "spec_sha256": digests[i], "lams": rec["lams"]})
                print(workload, i, rec["lams"][0], rec["lams"][-1], file=sys.stderr)
            out[workload] = sorted(rows, key=lambda row: row["pool_index"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "frozen.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
