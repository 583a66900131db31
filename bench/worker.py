"""One benchmark operation in a fresh interpreter.

    python3 worker.py --workload NAME --seed N --out DIR --result FILE [--smoke] [--trace]

Set-up is everything before the operation: interpreter start, `import nla`,
input generation, and a warm-up run of the smoke profile. The worker then
times one operation (wall and process CPU time), optionally traced, checks
its outputs and writes a JSON result. It runs in the benchmark's run
directory, so every path it writes is relative to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import nla

    if Path(nla.__file__).resolve().parent != ROOT / "src" / "nla":
        raise SystemExit(f"imported nla from {nla.__file__}, not from this checkout")
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    Path("warmup").mkdir()
    warmup = build(workloads.SMOKE, args.seed, Path("warmup"))
    warmup.run(Path("warmup") / args.out)
    work = build(workloads.SMOKE if args.smoke else build.FULL, args.seed, Path("."))
    ready = time.monotonic()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = Path(args.out)
    result = {"ready": ready, "traced": args.trace, "failures": [], "counters": {}}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            state = work.run(out)
        else:
            with tracer.span("bench.op"):
                state = work.run(out)
    except Exception:
        state = None
        result["failures"].append(traceback.format_exc())
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    # Read before the checks, which hold arrays of their own.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    if not result["failures"]:
        try:
            result["failures"], result["counters"] = work.check(out, state)
        except Exception:
            result["failures"].append(traceback.format_exc())
        result["digests"] = _digests(out)
    if tracer is not None:
        # Counted by the checks, from the records and rho.json the operation wrote.
        result["layers"]["tomography.records"] = result["counters"].get("N", 0)
        result["layers"]["tomography.loglik_gap"] = result["counters"].get("loglik_gap", 0.0)
    result["environment"] = _environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
