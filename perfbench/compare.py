"""Compare two checkouts with identical benchmark code, in alternating pairs.

    python3 perfbench/compare.py --parent ../parent --change .

Each of 10 pairs runs this directory's run.py once in each checkout, on the
same seed, for BENCHMARK.json's run_seconds, alternating which side goes
first. For every workload and end-to-end metric it prints both sides'
median and quartiles and a verdict, by the rules of the choosing-metrics
method, taken in this order:

* ``worse``: the change fails a larger share of its attempted requests
  than the parent (this marks every metric of the workload);
* ``unresolved``: a time metric whose speed factor (speed.py) moved, that
  is, the two sides' median factors differ by more than the wider of their
  inter-quartile spreads. The program then changed the calibration kernel
  too, and reference seconds no longer compare; read the wall times;
* ``gain``: the change wins at least nine of the ten pairs (ties count for
  neither) and the medians differ by more than the parent's inter-quartile
  spread;
* ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run (if every one does: ``better``);
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* ``same``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10
SEED_BASE = 1000
# The speed factor each time metric was rescaled by (run.py's calibration line).
FACTOR_OF = {"setup_s": "setup", "request_s.p50": "timed", "eigenpairs_per_s": "timed"}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The run's result line and its calibration line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                         timeout=900, check=True)
    *_, calibration, result = out.stdout.strip().splitlines()
    return json.loads(result), json.loads(calibration)["calibration"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def speed_moved(parent: list, change: list) -> bool:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return abs(cm - pm) > max(p3 - p1, c3 - c1)


def verdict(metric: dict, parent: list, change: list, more_failures: bool,
            moved: bool) -> str:
    if more_failures:
        return "worse"
    if moved:
        return "unresolved"
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    spread = p3 - p1
    if wins >= 0.9 * len(parent) and abs(cm - pm) > spread and sign * (cm - pm) > 0:
        return "gain"
    if pm and spread / abs(pm) > metric["bound"]:
        beats = all(sign * (c - p) > 0 for p in parent for c in change)
        return "better" if beats else "unresolved"
    if pm and sign * (pm - cm) / abs(pm) > metric["bound"]:
        return "worse"
    return "same"


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    summary = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, SEED_BASE + i,
                                           bench["run_seconds"]))
        share = {}
        print(f"== {workload}: {PAIRS} pairs")
        for side, rs in runs.items():
            failed = sum(r["failed"] for r, _ in rs)
            attempted = sum(r["attempted"] for r, _ in rs)
            share[side] = failed / attempted
            print(f"{side:<7} failed/attempted {failed}/{attempted}")
        more_failures = share["change"] > share["parent"]
        moved = {}
        for key in sorted(set(FACTOR_OF.values())):
            pf = [c["speed_factor"][key] for _, c in runs["parent"]]
            cf = [c["speed_factor"][key] for _, c in runs["change"]]
            moved[key] = speed_moved(pf, cf)
            pq, cq = quartiles(pf), quartiles(cf)
            print(f"speed factor {key:<6} parent {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}]"
                  f"  change {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}]"
                  f"  {'MOVED' if moved[key] else 'steady'}")
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r, _ in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r, _ in runs["change"]]
            pq, cq = quartiles(pv), quartiles(cv)
            v = verdict(metric, pv, cv, more_failures,
                        name in FACTOR_OF and moved[FACTOR_OF[name]])
            rows[name] = {"parent": pq, "change": cq, "verdict": v}
            print(f"{name:<18} {metric['unit']:<7} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  bound {metric['bound']}  {v}")
            if name in FACTOR_OF:
                pw = quartiles([c["wall"][name] for _, c in runs["parent"]])
                cw = quartiles([c["wall"][name] for _, c in runs["change"]])
                print(f"{'  wall':<26} parent {pw[1]:.6g} [{pw[0]:.6g}, {pw[2]:.6g}]"
                      f"  change {cw[1]:.6g} [{cw[0]:.6g}, {cw[2]:.6g}]")
        summary[workload] = {"speed_factor_moved": moved, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
