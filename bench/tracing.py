"""Per-layer spans recorded from outside the package.

`install` wraps every public function of each nla module, and every public
method of the classes those modules define, in a span (name, start, end,
parent). Each module is one layer. A span's self time is its duration minus
the time its child spans cover, so the layers' self times plus the
benchmark's own root span add up to the traced wall time. Hooks attached to a
few entry points record counters (records, iterations, bytes) where the work
happens. Spans stay in memory; `layer_metrics` reduces them when the
operation ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "tomography", "homodyne", "wigner", "physical", "amplifiers", "fock")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced


def _records(counters, args, kwargs, result):
    counters["homodyne.records"] += result.n_records


def _csv_saved(counters, args, kwargs, result):
    counters["homodyne.csv_bytes"] += os.path.getsize(result)


def _csv_loaded(counters, args, kwargs, result):
    counters["homodyne.records"] += result.n_records
    counters["homodyne.csv_bytes"] += os.path.getsize(args[0])


def _maxlik(counters, args, kwargs, result):
    settings = args[1] if len(args) > 1 else kwargs["settings"]
    counters["tomography.dim"] = settings.cutoff.dim
    counters["tomography.iterations"] += result.iterations_used
    counters["tomography.calls"] += 1
    counters["tomography.converged"] += bool(result.converged)


def _herald(counters, args, kwargs, result):
    counters["physical.success_prob_sum"] += result.success_prob
    counters["physical.calls"] += 1


def _grid(counters, args, kwargs, result):
    counters["wigner.grid_points"] += result.values.size


def _cli_output(counters, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    out = Path(argv[argv.index("--out") + 1])
    counters["cli.output_bytes"] += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


_HOOKS = {
    "homodyne.sample_quadratures": _records,
    "homodyne.save_dataset_csv": _csv_saved,
    "homodyne.load_dataset_csv": _csv_loaded,
    "tomography.maxlik_reconstruct": _maxlik,
    "physical.physical_amplifier": _herald,
    "wigner.wigner_function": _grid,
    "cli.main": _cli_output,
}


def install(tracer: Tracer, package: str = "nla") -> None:
    """Route every call into the package's public API through the tracer."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                qual = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(qual, obj, _HOOKS.get(qual))
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name, tracer.wrap(f"{layer}.{name}.{meth_name}", meth))
    # `from .x import f` copies and dispatch tables hold their own references.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per layer (the benchmark's own code is the layer `bench`),
    inclusive time of the homodyne stages, error counts, and counters."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {
        f"{layer}.{kind}": 0.0 for layer in LAYERS + ("bench",) for kind in ("self_s", "errors")
    }
    inclusive: dict[str, float] = defaultdict(float)
    for (name, start, end, _, raised), child in zip(spans, covered):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += end - start - child
        out[f"{layer}.errors"] += raised
        inclusive[name] += end - start
    c = tracer.counters
    out.update(
        {
            "homodyne.sample_s": inclusive["homodyne.sample_quadratures"],
            "homodyne.merge_s": inclusive["homodyne.QuadratureDataset.merged_with"],
            "homodyne.csv_save_s": inclusive["homodyne.save_dataset_csv"],
            "homodyne.csv_load_s": inclusive["homodyne.load_dataset_csv"],
            "homodyne.records": c["homodyne.records"],
            "homodyne.csv_bytes": c["homodyne.csv_bytes"],
            "tomography.iterations": c["tomography.iterations"],
            "tomography.ms_per_iter": 1e3 * inclusive["tomography.maxlik_reconstruct"]
            / max(c["tomography.iterations"], 1),
            "tomography.dim": c["tomography.dim"],
            "tomography.converged_frac": c["tomography.converged"] / max(c["tomography.calls"], 1),
            "physical.success_prob": c["physical.success_prob_sum"] / max(c["physical.calls"], 1),
            "wigner.grid_points": c["wigner.grid_points"],
            "cli.output_bytes": c["cli.output_bytes"],
        }
    )
    return out
