"""Pipeline benchmark for nla.

    python3 bench/bench_pipeline.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. One closed-loop client runs operations back
to back, each in a fresh worker process (bench/worker.py) that sets up the
workload from the seed, runs one operation and checks its outputs, until S
seconds have passed and at least MIN_OPS operations ran. Repeats share the
seed, so they must write byte-identical files.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed: medians
over operations of wall and CPU time, set-up time and peak RSS. With
--trace 1, operations alternate untraced and traced; the traced ones give the
per-layer metrics and the ratio of the two medians the tracing overhead. The
last stdout line is the JSON result; the lines before it give the
environment, each operation's counters and the sample counts. --smoke runs
the seconds-long profile of acceptance test 10.

BLAS and OpenMP use one thread in every worker: the outputs' last digits
depend on the thread count, and one thread fits any machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
THREADS = "1"
MIN_OPS = 3
WORKER_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # start no operation that could end past this


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_op(index: int, args, traced: bool, run_dir: Path, env: dict) -> dict:
    result_path = run_dir / f"result-{index}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--out", f"out-{index}", "--result", result_path.name,
    ]
    argv += ["--smoke"] * args.smoke + ["--trace"] * traced
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        return {"traced": traced, "failures": [f"worker exited with code {proc.returncode}"]}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result.pop("ready") - spawned
    shutil.rmtree(run_dir / f"out-{index}", ignore_errors=True)
    shutil.rmtree(run_dir / "warmup", ignore_errors=True)
    return result


def _describe(index: int, op: dict) -> str:
    mode = "traced" if op["traced"] else "untraced"
    if "wall_s" not in op:
        return f"op {index} [{mode}]: FAILED {op['failures']}"
    counters = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in op["counters"].items())
    status = "ok" if not op["failures"] else f"FAILED {op['failures']}"
    return (f"op {index} [{mode}]: setup {op['setup_s']:.3f} s, wall {op['wall_s']:.3f} s, "
            f"cpu {op['cpu_s']:.3f} s, rss {op['peak_rss_mb']:.1f} MB | {counters} | {status}")


def _median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="seconds-long profile")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nla" / "__init__.py").is_file():
        print(f"no nla package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_dir = BENCH / "_work" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = _worker_env()
    min_ops = (2 if args.trace else 1) if args.smoke else MIN_OPS
    ops: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            op_start = time.monotonic()
            ops.append(_run_op(len(ops), args, args.trace == 1 and len(ops) % 2 == 1, run_dir, env))
            now = time.monotonic()
            if now - start >= args.seconds and len(ops) >= min_ops:
                break
            if now - start + (now - op_start) > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            (BENCH / "_work").rmdir()

    reference = next((op["digests"] for op in ops if "digests" in op), None)
    for op in ops:
        if "digests" in op and op["digests"] != reference:
            op["failures"].append("outputs differ from the first operation at the same seed")
    timed = [op for op in ops if "wall_s" in op]
    if not timed:
        for index, op in enumerate(ops):
            print(_describe(index, op))
        print("no operation completed", file=sys.stderr)
        return 1

    env_info = timed[0]["environment"]
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" smoke={int(args.smoke)}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    for index, op in enumerate(ops):
        print(_describe(index, op))
    failed = sum(1 for op in ops if op["failures"])
    good = [op for op in timed if not op["failures"]] or timed
    untraced = [op for op in good if not op["traced"]] or good

    if args.trace == 0:
        values = {
            "wall_s": _median(untraced, "wall_s"),
            "cpu_s": _median(untraced, "cpu_s"),
            "setup_s": _median(timed, "setup_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
        metrics = spec["end_to_end"]
        print(f"medians of {len(untraced)} operations; set-up median of {len(timed)}")
    else:
        traced = [op for op in good if op["traced"]] or [op for op in timed if op["traced"]]
        if not traced:
            print("no traced operation completed", file=sys.stderr)
            return 1
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            _median(traced, "wall_s") / _median(untraced, "wall_s") - 1.0
        )
        values["failed_frac"] = failed / len(ops)
        metrics = spec["per_layer"]
        accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"medians of {len(traced)} traced operations against {len(untraced)} untraced;"
              f" layer self times sum to {accounted:.4f} s of a traced wall"
              f" {_median(traced, 'wall_s'):.4f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
