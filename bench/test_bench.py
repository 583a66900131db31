"""The benchmark's own checks, on the seconds-long smoke profile."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))

import likelihood  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "bench_pipeline.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__")
    )
    proc = run_bench(tmp_path, "simulate_ref", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_certified_gap_matches_the_package_likelihood():
    sys.path.insert(0, str(ROOT / "src"))
    from nla import fock, homodyne, tomography

    cutoff = fock.FockCutoff(12)
    state = fock.coherent_state(0.8, cutoff)
    data = homodyne.sample_quadratures(state, homodyne.uniform_phases(5), 400, 0.7, 9, tag="a")
    result = tomography.maxlik_reconstruct(
        data, tomography.TomographySettings(cutoff=cutoff, eta=0.7, max_iters=1)
    )
    # After one RhoR step from the maximally mixed state the package logged
    # logL of that start; the benchmark's code must reproduce it.
    start = np.eye(cutoff.dim, dtype=complex) / cutoff.dim
    loglik, gap = likelihood.certify(start, data.theta, data.x, 0.7)
    assert loglik == pytest.approx(result.log_likelihood_trace[0], rel=1e-12)
    assert gap > 0.0
    # The bound shrinks as the reconstruction approaches the maximum.
    _, gap_after = likelihood.certify(result.rho.elements, data.theta, data.x, 0.7)
    assert gap_after < gap
