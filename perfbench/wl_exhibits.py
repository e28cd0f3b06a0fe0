"""``exhibits``: what a ``make experiments`` user waits for.

Runs ``run_exhibits`` in this process over a fixed subset of the paper's
exhibits with ``fast=True``, ``jobs=1`` (in-process spans cannot see pool
workers), no persistent trace or stream stores, and the JSON written to a
scratch directory.  The subset is many small traces, each reused across
exhibits and technique configs, so workload synthesis, fragment-stream
recording and sweeps do most of the work; cleaning, multi-frontier and
the service do none.

The whole ``all`` set at scale 1.0 takes about 90 s on a 2-CPU host and
the five exhibits below about 80 s, which does not fit the run, so the
subset runs at ``SCALE`` (about 15 s).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import ROOT, median, out_dir

EXHIBITS = ("table1", "fig2", "fig11", "ablation_combined", "taxonomy")
SCALE = 0.25
#: Workloads re-replayed through the reference ``Simulator`` as a check
#: that holds for any seed (pinned digests cover only two seeds).
REFERENCE_CHECK = ("hm_1", "w84", "usr_0")

_SETUP_SNIPPET = (
    "import os, time, tempfile; t = time.perf_counter(); "
    "import repro.experiments.runner as r; "
    "from repro.experiments.registry import resolve_names; "
    "from repro.experiments.sweep import reset_sweep_engines; "
    "resolve_names({names!r}); reset_sweep_engines(); "
    "d = tempfile.mkdtemp(dir={tmp!r}); "
    "print(time.perf_counter() - t); os.rmdir(d)"
)


def measure_setup(reps: int = 5) -> List[float]:
    """Fresh-interpreter import + run set-up, timed from spawn to exit."""
    tmp = out_dir("tmp")
    code = _SETUP_SNIPPET.format(names=list(EXHIBITS), tmp=str(tmp))
    env_path = str(ROOT / "src")
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"}, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def one_pass(seed: int, dest: Path):
    """Run the exhibit subset once, cold; returns (wall_s, outcomes)."""
    from repro.experiments import common
    from repro.experiments.runner import run_exhibits
    from repro.experiments.sweep import reset_sweep_engines

    shutil.rmtree(dest, ignore_errors=True)
    reset_sweep_engines()
    common.clear_trace_cache()
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        outcomes = run_exhibits(
            list(EXHIBITS), seed=seed, scale=SCALE, out_dir=str(dest),
            fast=True, jobs=1, echo=lambda _line: None,
        )
    return time.perf_counter() - t0, outcomes


def digests(dest: Path) -> Dict[str, str]:
    return {
        name: hashlib.sha256((dest / f"{name}.json").read_bytes()).hexdigest()
        for name in EXHIBITS if (dest / f"{name}.json").is_file()
    }


def consistency(dest: Path, seed: int) -> List[str]:
    """Checks that hold for every seed: exhibits agree with each other,
    and a few workloads' seek counts match the reference Simulator."""
    from repro.core.config import LS, NOLS, build_translator
    from repro.core.simulator import Simulator
    from repro.workloads import synthesize_workload

    load = {n: json.loads((dest / f"{n}.json").read_text()) for n in EXHIBITS}
    problems = []
    fig11, fig2 = load["fig11"], load["fig2"]
    if set(fig11) != set(load["table1"]) or len(fig11) != 21:
        problems.append("fig11/table1 workload sets differ")
    for w, row in fig11.items():
        saf = row["saf"]
        ls = saf["LS"]["total"]
        if load["ablation_combined"][w]["ls"] != ls or load["taxonomy"][w]["saf"] != ls:
            problems.append(f"{w}: LS SAF differs between fig11/ablation/taxonomy")
        seeks = fig2[w]
        ratio = (seeks["ls"]["read_seeks"] + seeks["ls"]["write_seeks"]) / max(
            1, seeks["nols"]["read_seeks"] + seeks["nols"]["write_seeks"])
        if abs(ratio - ls) > 0.0015:
            problems.append(f"{w}: fig2 LS/NoLS ratio {ratio:.4f} != fig11 SAF {ls}")
        singles = {k: v["total"] for k, v in saf.items() if k != "LS"}
        best = min(singles.values())
        if load["ablation_combined"][w]["best_single"] != best:
            problems.append(f"{w}: ablation best_single != min of fig11 singles")
    for w in REFERENCE_CHECK:
        trace = synthesize_workload(w, seed=seed, scale=SCALE)
        for cfg, key in ((NOLS, "nols"), (LS, "ls")):
            stats = Simulator().run(trace, build_translator(trace, cfg)).stats
            got = fig2[w][key]
            if (stats.read_seeks, stats.write_seeks) != (got["read_seeks"], got["write_seeks"]):
                problems.append(f"{w}/{key}: fig2 seeks {got} != reference "
                                f"({stats.read_seeks}, {stats.write_seeks})")
    return problems


def install_spans(tracer) -> None:
    """Spans around every layer the exhibits call into."""
    import repro.analysis as analysis_pkg
    from repro.core import stream
    from repro.core.batch import batch_replay, batch_replay_translator
    from repro.core.simulator import Simulator
    from repro.experiments import common, registry
    from repro.extentmap.array_map import ArrayExtentMap
    from repro.workloads.generator import WorkloadGenerator

    import importlib
    import pkgutil

    tracer.patch_method(WorkloadGenerator, "generate", "workloads.synthesize",
                        key=lambda self, seed=42, scale=1.0: (self.spec.name, seed, scale))
    tracer.patch_function(stream.record_fragment_stream, "stream.record",
                          key=lambda trace, *a, **k: (trace.name, len(trace)))
    tracer.patch_function(stream.stream_replay, "stream.replay")
    tracer.patch_function(stream.stream_cache_sweep, "stream.cache_sweep")
    for info in pkgutil.iter_modules(analysis_pkg.__path__):
        tracer.patch_module_functions(
            importlib.import_module(f"repro.analysis.{info.name}"), "analysis")
    tracer.patch_function(common.save_json, "experiments.save")
    tracer.patch_function(batch_replay, "batch.replay")
    tracer.patch_function(batch_replay_translator, "batch.replay")
    tracer.patch_function(common.note_reference_fallback, "batch.fallback")
    tracer.patch_method(Simulator, "run", "simulator.run")
    tracer.patch_method(ArrayExtentMap, "map_range_batch", "extentmap.map_batch")
    tracer.patch_method(ArrayExtentMap, "lookup_pieces_batch", "extentmap.lookup_batch")
    for name in EXHIBITS:
        tracer.patch_dict(registry.EXHIBITS, name, f"exhibit.{name}")


def _per_trace(tracer, name: str) -> float:
    keys = [(k, c) for (n, k), c in tracer.counts.items() if n == name]
    return sum(c for _, c in keys) / len(keys) if keys else 0.0


def run(report, seed: int, seconds: int, trace: bool, tracer=None) -> dict:
    setup = measure_setup()
    dest = out_dir("exhibits") / "json"
    walls, outcomes = [], []
    t_start = time.perf_counter()
    while True:
        wall, outcomes = one_pass(seed, dest)
        walls.append(wall)
        if time.perf_counter() - t_start + wall > seconds:
            break
    failed = [o.name for o in outcomes if not o.ok]
    report.attempted = len(EXHIBITS)
    report.failed = len(failed) + (len(EXHIBITS) - len(outcomes))
    for name in failed:
        report.mismatch(f"exhibit {name} not ok")

    # ---- correctness (outside the timed window).
    pins = json.loads((Path(__file__).parent / "pins.json").read_text()).get("exhibits", {})
    got = digests(dest)
    pinned = pins.get(f"seed{seed}-scale{SCALE}")
    if pinned is not None:
        for name in EXHIBITS:
            if got.get(name) != pinned.get(name):
                report.mismatch(f"exhibit {name} JSON sha256 {got.get(name)} != pinned {pinned.get(name)}")
                report.failed += 1
    # Cross-checks read every exhibit's JSON, so they need all of them.
    for problem in consistency(dest, seed) if report.failed == 0 else []:
        report.mismatch(problem)
        report.failed += 1

    out = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "unit_s": [o.duration_s for o in outcomes],
    }
    report.note(f"exhibits: {list(EXHIBITS)} at scale {SCALE}, seed {seed}, fast, jobs=1; "
                f"{len(walls)} pass(es) {['%.3f' % w for w in walls]} s; "
                f"JSON digests {'checked against pins' if pinned else 'not pinned for this seed'}; "
                f"cross-exhibit + reference checks run")
    report.note("  per exhibit: " + ", ".join(f"{o.name} {o.duration_s:.3f}s" for o in outcomes))

    if trace:
        install_spans(tracer)
        with tracer.span("exhibits") as root:
            traced_wall, _ = one_pass(seed, dest)
        tracer.restore()
        if digests(dest) != got:
            report.mismatch("traced pass wrote different exhibit JSON than the untraced pass")
            report.failed += 1
        out["traced_wall_s"] = traced_wall
        out["root_sid"] = root.sid
        out["synth_per_trace"] = _per_trace(tracer, "workloads.synthesize")
        out["record_per_trace"] = _per_trace(tracer, "stream.record")
        out["fallbacks"] = tracer.span_count("batch.fallback")
    return out
