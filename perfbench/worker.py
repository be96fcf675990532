"""One workload in one fresh process: load, warm up, measure, check.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread. Prints one
JSON object on stdout. Every request, the warm-up included, loads and
validates its problem file afresh (workloads.request). Untraced, it runs whole passes over the run's specs
(closed loop, one client) until another pass would overrun the time
budget. Traced, it runs each spec twice back to back, once untraced and
once traced, alternating which goes first, so the tracing overhead is
measured on the same input.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Bounds the record list when every request fails at once.
MAX_REQUESTS = 5000


def _timed(workload, entry, index, n, out_dir, tracer=None, sampler=None):
    from workloads import error_name, request

    root = tracer.open("request") if tracer else None
    spent0 = sampler.spent_s if sampler else 0.0
    t0 = time.perf_counter()
    try:
        rec = request(workload, entry, n, out_dir)
    except Exception as exc:  # every failure is counted, by class
        rec = {"error": error_name(exc), "message": str(exc)[:300]}
    rec["s"] = time.perf_counter() - t0 - ((sampler.spent_s - spent0) if sampler else 0.0)
    if tracer:
        root.counts["report_bytes"] = rec.get("report_bytes", 0)
        tracer.close(root)
    rec["spec"] = index
    rec["traced"] = tracer is not None
    return rec


def measure(workload, entries, seconds, out_dir, sampler):
    """Whole passes over the specs until the next pass would overrun."""
    from workloads import N_EIGS

    records = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, entry in enumerate(entries):
            records.append(_timed(workload, entry, i, N_EIGS[workload], out_dir,
                                  sampler=sampler))
        now = time.perf_counter()
        if now - start + (now - p0) > seconds or len(records) >= MAX_REQUESTS:
            return records


def measure_traced(workload, entries, seconds, out_dir, tracer):
    """(untraced, traced) pairs on one spec at a time, order alternating."""
    from workloads import N_EIGS

    records = []
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(entries)
        p0 = time.perf_counter()
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                records.append(_timed(workload, entries[i], i, N_EIGS[workload],
                                      out_dir, tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
        k += 1
        now = time.perf_counter()
        if now - start + (now - p0) > seconds or len(records) >= MAX_REQUESTS:
            return records


def attach_checks(workload, entries, records, root):
    """Set rec['fail'] and rec['dlam'] on every record."""
    from sltrans.problem import load_problem
    from workloads import N_EIGS, check, load_frozen, load_oracles, oracle_eigenvalues

    n = N_EIGS[workload]
    if workload == "const-deep":
        oracles = load_oracles(root)
        refs = {}
        for rec in records:
            if rec["spec"] not in refs and "lams" in rec:
                spec = load_problem(entries[rec["spec"]]["file"])
                refs[rec["spec"]] = oracle_eigenvalues(oracles, spec, n)
    else:
        frozen = load_frozen(workload)
        refs = {i: frozen[e["pool_index"]]["lams"] for i, e in enumerate(entries)}
    for rec in records:
        if "error" in rec:
            rec["fail"], rec["dlam"] = rec["error"], math.nan
        else:
            rec["fail"], rec["dlam"] = check(workload, rec, n, refs[rec["spec"]])


def layer_metrics(tracer, records) -> dict:
    from tracing import request_metrics, split_requests

    per_request = [request_metrics(spans) for spans in split_requests(tracer.spans)]
    out = {key: statistics.fmean(m[key] for m in per_request) for key in per_request[0]}
    by_spec: dict[int, dict] = {}
    for rec in records:
        by_spec.setdefault(rec["spec"], {}).setdefault(rec["traced"], []).append(rec["s"])
    diffs = [t - u for pair in by_spec.values()
             for t, u in zip(pair.get(True, []), pair.get(False, []))]
    out["trace.overhead_s"] = statistics.median(diffs)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))
    from sltrans.problem import load_problem, validate_problem
    from workloads import WARMUP_EIGS, request

    with open(args.manifest) as fh:
        entries = json.load(fh)
    t0 = time.perf_counter()
    for e in entries:
        validate_problem(load_problem(e["file"]))
    load_validate_s = time.perf_counter() - t0
    out_dir = Path(args.out_dir)

    warmup_error = None
    try:
        request(args.workload, entries[0], WARMUP_EIGS[args.workload], out_dir)
    except Exception as exc:  # the timed requests on this spec report it
        warmup_error = f"{type(exc).__name__}: {exc}"[:300]

    tracer = None
    speed_factor = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        records = measure_traced(args.workload, entries, args.seconds, out_dir, tracer)
    else:
        from speed import Sampler

        with Sampler() as sampler:
            records = measure(args.workload, entries, args.seconds, out_dir, sampler)
        speed_factor = sampler.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attach_checks(args.workload, entries, records, root)
    result = {"records": records, "peak_rss_mb": peak_rss_mb,
              "speed_factor": speed_factor, "warmup_error": warmup_error}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, records)
        result["layers"]["problem.load_validate.s"] = load_validate_s
        if args.trace_file:
            tracer.write(args.trace_file)
    for rec in records:
        rec.pop("lams", None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
