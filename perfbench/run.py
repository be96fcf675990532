"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload const-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is ``src/sltrans``
there. The run generates its specs from the seed, writes them as problem
files, times set-up in fresh interpreters, then runs the workload in one
child process with BLAS/OpenMP pinned to one thread. It prints a
readable report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced). Untraced, the line before it is a JSON object
with the run's speed factors and wall times, which compare.py reads. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("const-deep", "poly-expand", "sampled-cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
EPS = 2.0 ** -52


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def machine_note(seed: int) -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} threads=1 seed={seed}")


def write_inputs(workload: str, seed: int, tmp: Path) -> Path:
    """Problem files plus a manifest the child and the probes read."""
    import specs

    entries = specs.run_specs(workload, seed)
    if workload != "const-deep":
        from workloads import load_frozen

        frozen = load_frozen(workload)
        for e in entries:
            if specs.spec_digest(e["spec"]) != frozen[e["pool_index"]]["spec_sha256"]:
                raise SystemExit(f"frozen pool of {workload} does not match the "
                                 "generator; rebuild it with perfbench/freeze.py")
    path = tmp / "manifest.json"
    path.write_text(json.dumps(problem_files(entries, tmp)))
    return path


def problem_files(entries: list[dict], tmp: Path) -> list[dict]:
    """Write each entry's spec as a problem file; return the request entries."""
    from sltrans.problem import save_problem

    rows = []
    for e in entries:
        path = tmp / f"problem-{e['label']}.json"
        save_problem(e["spec"], path)
        row = {"label": e["label"], "file": str(path), "pool_index": e["pool_index"]}
        if "bump" in e:
            row["bump"] = e["bump"]
        rows.append(row)
    return rows


def setup_seconds(manifest: Path) -> tuple[float, float, float]:
    """Median fresh-interpreter set-up time in reference and wall seconds,
    and the median speed factor of the probes.

    One unmeasured probe runs first: it may compile bytecode, which a user
    pays once.
    """
    ref, wall, factors = [], [], []
    for k in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(manifest)],
                             env=child_env(), capture_output=True, text=True,
                             timeout=60, check=True)
        seconds, factor = (float(v) for v in out.stdout.split())
        if k:
            wall.append(seconds)
            ref.append(seconds * factor)
            factors.append(factor)
    return statistics.median(ref), statistics.median(wall), statistics.median(factors)


def run_worker(args, manifest: Path, tmp: Path, trace_file: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--manifest", str(manifest), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(tmp)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    out = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                         timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def digits(err: float) -> float:
    """Decimal digits of agreement, capped at double-precision epsilon."""
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, EPS))


def end_to_end(workload: str, res: dict, setup: tuple) -> tuple[dict, list, dict]:
    """Reported metrics, readable lines that also show raw and worst cases,
    and the calibration record (speed factors and wall times).

    Times are in reference seconds (speed.py); the lines print wall times
    too. request_s.p50 and the digit metrics are taken over the requests
    that passed every check, so a request that fails fast cannot make the
    median look better; a failed request shows in pass_rate, and its time
    still counts in eigenpairs_per_s. The worst error of any request is
    printed as max_dlam_rel and max_residual.
    """
    from workloads import N_EIGS

    recs = res["records"]
    f = res["speed_factor"]
    ok = [r for r in recs if r["fail"] is None]
    busy = sum(r["s"] for r in recs)
    # If nothing passed, the run is already marked incorrect; the median
    # of every request keeps the metric defined.
    wall_p50 = statistics.median(r["s"] for r in (ok or recs))
    dlams = [r["dlam"] for r in recs if math.isfinite(r["dlam"])]
    resid = [(v, k) for r in recs if "resid" in r for k, v in r["resid"].items()]
    max_dlam = max(dlams) if dlams else math.nan
    max_res, max_key = max(resid) if resid else (math.nan, "-")
    fail_rate = (len(recs) - len(ok)) / len(recs)
    metrics = {
        "setup_s": (setup[0], "s"),
        "request_s.p50": (wall_p50 * f, "s"),
        "eigenpairs_per_s": (len(ok) * N_EIGS[workload] / (busy * f), "1/s"),
        "dlam_digits": (statistics.fmean(digits(r["dlam"]) for r in ok) if ok else 0.0,
                        "digits"),
        "residual_digits": (statistics.fmean(digits(max(r["resid"].values())) for r in ok)
                            if ok else 0.0, "digits"),
        "pass_rate": (1.0 - fail_rate, "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    ref = ("oracle tests/oracles.py" if workload == "const-deep"
           else "frozen seed-commit drift reference")
    w = 18
    lines = [
        f"speed factor {f:.4f} timed phase, {setup[2]:.4f} set-up "
        "(reference seconds per wall second)",
        f"{'setup_s':<{w}} {setup[0]:.4f} s   (wall {setup[1]:.4f} s; median of "
        f"{SETUP_PROBES} fresh interpreters)",
        f"{'request_s.p50':<{w}} {wall_p50 * f:.4f} s   (wall {wall_p50:.4f} s; "
        f"{len(ok)} passing of {len(recs)} requests, {busy:.2f} s busy)",
        f"{'eigenpairs_per_s':<{w}} {metrics['eigenpairs_per_s'][0]:.3f} 1/s   "
        f"(wall {len(ok) * N_EIGS[workload] / busy:.3f} 1/s)",
        f"{'max_dlam_rel':<{w}} {max_dlam:.3e} 1   (worst request, vs {ref})",
        f"{'dlam_digits':<{w}} {metrics['dlam_digits'][0]:.3f} digits   (mean over passing requests)",
        f"{'max_residual':<{w}} {max_res:.3e} 1   (worst request, key {max_key})",
        f"{'residual_digits':<{w}} {metrics['residual_digits'][0]:.3f} digits   "
        "(mean over passing requests)",
        f"{'fail_rate':<{w}} {fail_rate:.4f} 1   ({len(recs) - len(ok)} of {len(recs)} attempted)",
        f"{'pass_rate':<{w}} {metrics['pass_rate'][0]:.4f} 1",
        f"{'peak_rss_mb':<{w}} {res['peak_rss_mb']:.1f} MB",
    ]
    calibration = {"speed_factor": {"timed": f, "setup": setup[2]},
                   "wall": {"setup_s": setup[1], "request_s.p50": wall_p50,
                            "eigenpairs_per_s": len(ok) * N_EIGS[workload] / busy}}
    return metrics, lines, calibration


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sltrans" / "__init__.py").is_file():
        print(f"error: no src/sltrans under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))

    tmp = root / ".perfbench-tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    trace_file = None
    if args.trace:
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
    t0 = time.perf_counter()
    try:
        manifest = write_inputs(args.workload, args.seed, tmp)
        setup = setup_seconds(manifest) if not args.trace else None
        res = run_worker(args, manifest, tmp, trace_file)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    recs = res["records"]
    by_reason = Counter(r["fail"] for r in recs if r["fail"] is not None)
    failed = sum(by_reason.values())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} wall {time.perf_counter() - t0:.1f} s")
    print(machine_note(args.seed))
    print(f"requests {len(recs)} attempted, {failed} failed; failures by class "
          f"or exit code: {json.dumps(by_reason, sort_keys=True)}")
    if res["warmup_error"]:
        print(f"warm-up request failed: {res['warmup_error']}")
    if args.trace:
        from tracing import LAYER_UNITS

        layers = res["layers"]
        for key in sorted(layers):
            print(f"{key:<40} {layers[key]:.6g}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        values, lines, calibration = end_to_end(args.workload, res, setup)
        print("\n".join(lines))
        print(json.dumps({"calibration": calibration}))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
