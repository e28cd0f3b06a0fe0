"""``replay-long``: a user replaying their own big traces once each.

Two ~0.5M-op MSR files are generated from the seed (outside the timed
window) and ingested cold through ``load_trace``; the ingest is the
set-up.  Each trace is then replayed once through the batch kernels:
``hm_1`` (read-heavy) under NoLS, LS and LS_ALL, and ``w84``
(write-heavy) under LS, a finite zoned log sized so cleaning episodes
run, and hot/cold multi-frontier placement.  Nothing is reused, so
synthesis, fragment streams and sweeps do no work here; the kernels and
the extent map (about 20x larger than at paper scale) do nearly all.

Each replay is fed in the kernel's own chunk size, exactly as
``batch_replay_translator`` does, and every chunk is timed: the chunk
latencies are this workload's units for ``p50_ms``/``tail_ms``, and they
show cleaning episodes and map flushes as tail latency.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import ROOT, array_digest, median
from inputs import LONG_TRACES

#: Zone size of the finite log for the cleaning replay.
CLEAN_ZONE_MIB = 64.0
#: Log capacity as a multiple of the trace's LBA space: small enough that
#: w84's ~12 GiB of writes force >100 cleaning episodes.
CLEAN_OVERPROVISION = 3.0
#: Prefix replayed through the reference ``Simulator`` for seeds whose
#: full outputs are not pinned.
REFERENCE_PREFIX_OPS = 4096

CONFIGS = (
    # (family, trace, kind)
    ("nols", "hm_1", "NoLS"),
    ("ls_read", "hm_1", "LS"),
    ("ls_all", "hm_1", "LS_ALL"),
    ("ls_write", "w84", "LS"),
    ("cleaning", "w84", "cleaning"),
    ("multifrontier", "w84", "multifrontier"),
)


def ensure_inputs(seed: int) -> Dict[str, Tuple[Path, str]]:
    """Generate (or find cached) MSR files, one child process per trace
    running side by side, so the generators' memory never shows in this
    process's peak RSS."""
    code = (
        "import json, sys; sys.path.insert(0, {here!r}); sys.path.insert(0, {src!r}); "
        "from inputs import long_trace_file; "
        "print(json.dumps([str(x) for x in long_trace_file({name!r}, {ops}, {seed})]))"
    )
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", code.format(here=str(Path(__file__).parent),
                                               src=str(ROOT / "src"), name=name,
                                               ops=ops, seed=seed)],
            stdout=subprocess.PIPE, text=True)
        for name, ops in LONG_TRACES
    }
    files = {}
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"generating {name} failed with exit code {proc.returncode}")
        path, digest = json.loads(out.splitlines()[-1])
        files[name] = (Path(path), digest)
    return files


def build(family: str, kind: str, trace):
    from repro.core.cleaning import ZonedCleaningTranslator
    from repro.core.config import LS, LS_ALL, NOLS, build_translator
    from repro.core.multifrontier import MultiFrontierTranslator
    from repro.extentmap.array_map import ArrayExtentMap
    from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
    from repro.util.units import mib_to_sectors

    if kind in ("NoLS", "LS", "LS_ALL"):
        cfg = {"NoLS": NOLS, "LS": LS, "LS_ALL": LS_ALL}[kind]
        return build_translator(
            trace, cfg, address_map_tier=resolve_map_tier(DEFAULT_KERNEL_TIER))
    if kind == "cleaning":
        zone = mib_to_sectors(CLEAN_ZONE_MIB)
        n_zones = int(np.ceil(trace.max_end / zone * CLEAN_OVERPROVISION)) + 2
        return ZonedCleaningTranslator(
            frontier_base=trace.max_end, zone_mib=CLEAN_ZONE_MIB, n_zones=n_zones,
            reserve_zones=2, address_map=ArrayExtentMap())
    is_read, _, length = trace.as_arrays()
    return MultiFrontierTranslator(
        frontier_base=trace.max_end,
        region_sectors=int(length[~is_read].sum()) + 1,
        address_map=ArrayExtentMap())


def replay(translator, trace, lat_ms: List[float]):
    """``batch_replay_translator`` with every kernel chunk timed."""
    from repro.core.batch import DEFAULT_CHUNK_OPS, IncrementalBatchReplay

    engine = IncrementalBatchReplay(translator, trace_name=trace.name)
    is_read, lba, length = trace.as_arrays()
    step = DEFAULT_CHUNK_OPS if engine.log_structured else len(lba)
    for start in range(0, len(lba), step):
        t0 = time.perf_counter()
        engine.feed_arrays(is_read[start:start + step], lba[start:start + step],
                           length[start:start + step])
        lat_ms.append((time.perf_counter() - t0) * 1e3)
    return engine.result()


def summarize(result, translator) -> dict:
    """The simulated outputs that must repeat exactly (not metrics)."""
    stats = result.stats
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.distances, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(result.distance_is_read, dtype=bool).tobytes())
    out = {
        "stats": {f: getattr(stats, f) for f in stats.__dataclass_fields__},
        "distances_sha256": h.hexdigest(),
        "seeks": int(len(result.distances)),
    }
    cleaning = getattr(translator, "cleaning_stats", None)
    if cleaning is not None:
        out["cleaning"] = {f: getattr(cleaning, f) for f in cleaning.__dataclass_fields__}
    return out


def map_counters(translator) -> dict:
    amap = getattr(translator, "address_map", None)
    if callable(amap):  # ZonedCleaningTranslator exposes it as a method
        amap = amap()
    if amap is None or not hasattr(amap, "flush_count"):
        return {}
    flushes, reallocs = amap.flush_count, amap.realloc_count
    return {"flushes": flushes, "reallocs": reallocs, "extents": amap.mapped_extent_count()}


def one_pass(traces, tracer=None):
    outputs, counters, lat_ms, walls = {}, {}, [], {}
    t0 = time.perf_counter()
    for family, tname, kind in CONFIGS:
        trace = traces[tname]
        translator = build(family, kind, trace)
        c0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(f"batch.{family}"):
                result = replay(translator, trace, lat_ms)
        else:
            result = replay(translator, trace, lat_ms)
        walls[family] = time.perf_counter() - c0
        outputs[family] = summarize(result, translator)
        counters[family] = map_counters(translator)
    return time.perf_counter() - t0, outputs, counters, lat_ms, walls


def invariants(traces, outputs) -> List[str]:
    problems = []
    for family, tname, _ in CONFIGS:
        is_read, _, length = traces[tname].as_arrays()
        s = outputs[family]["stats"]
        want = (int(is_read.sum()), int((~is_read).sum()),
                int(length[is_read].sum()), int(length[~is_read].sum()))
        got = (s["reads"], s["writes"], s["sectors_read"], s["sectors_written"])
        if got != want:
            problems.append(f"{family}: op/sector totals {got} != trace {want}")
        total = s["read_seeks"] + s["write_seeks"] + s["defrag_write_seeks"]
        if outputs[family]["seeks"] != total:
            problems.append(f"{family}: distance log has {outputs[family]['seeks']} "
                            f"seeks, counters say {total}")
    if "cleaning" in outputs and outputs["cleaning"]["cleaning"]["zone_resets"] == 0:
        problems.append("cleaning: no cleaning episode ran; the log is oversized")
    return problems


def reference_outputs(trace, translator) -> dict:
    """:func:`summarize` of a reference ``Simulator`` replay."""
    from repro.core.batch import BatchRunResult
    from repro.core.recorders import SeekLogRecorder
    from repro.core.simulator import Simulator

    rec = SeekLogRecorder()
    run_result = Simulator(recorders=[rec]).run(trace, translator)
    result = BatchRunResult(
        run_result=run_result,
        distances=np.asarray([r.distance for r in rec.records], dtype=np.int64),
        distance_is_read=np.asarray([r.is_read for r in rec.records], dtype=bool),
        translator=translator,
    )
    return summarize(result, translator)


def reference_prefix(traces) -> List[str]:
    """Kernel vs reference Simulator on each config's first ops."""
    from repro.trace.sampling import head_sample

    problems = []
    for family, tname, kind in CONFIGS:
        prefix = head_sample(traces[tname], REFERENCE_PREFIX_OPS)
        kernel_t = build(family, kind, prefix)
        got = summarize(replay(kernel_t, prefix, []), kernel_t)
        if got != reference_outputs(prefix, build(family, kind, prefix)):
            problems.append(f"{family}: kernel != reference Simulator on the "
                            f"first {REFERENCE_PREFIX_OPS} ops")
    return problems


def ingest(files) -> Tuple[float, dict]:
    from repro.trace.store import load_trace

    t0 = time.perf_counter()
    traces = {name: load_trace(path, "msr") for name, (path, _) in files.items()}
    return time.perf_counter() - t0, traces


def run(report, seed: int, seconds: int, trace: bool, tracer=None) -> dict:
    files = ensure_inputs(seed)
    ingest_s = []
    for _ in range(1 if trace else 3):
        elapsed, traces = ingest(files)
        ingest_s.append(elapsed)
    for name, (_, digest) in files.items():
        if array_digest(*traces[name].as_arrays()) != digest:
            report.mismatch(f"{name}: ingested columns differ from the generated trace")

    walls, lat_ms = [], []
    t_start = time.perf_counter()
    while True:
        wall, outputs, counters, lat, per_cfg = one_pass(traces)
        walls.append(wall)
        lat_ms.extend(lat)
        if time.perf_counter() - t_start + wall > seconds:
            break

    report.attempted = len(CONFIGS)
    pins = json.loads((Path(__file__).parent / "pins.json").read_text()).get("replay", {})
    pinned = pins.get(f"seed{seed}")
    bad = set()
    if pinned is not None:
        for family, _, _ in CONFIGS:
            if outputs[family] != pinned.get(family):
                report.mismatch(f"{family}: outputs differ from the reference pin "
                                f"({outputs[family]} vs {pinned.get(family)})")
                bad.add(family)
    else:
        for problem in reference_prefix(traces):
            report.mismatch(problem)
            bad.add(problem.split(":")[0])
    for problem in invariants(traces, outputs):
        report.mismatch(problem)
        bad.add(problem.split(":")[0])
    report.failed = len(bad)

    sizes = {n: len(t) for n, t in traces.items()}
    report.note(f"replay-long: seed {seed}, traces {sizes} ops; {len(walls)} pass(es) "
                f"{['%.3f' % w for w in walls]} s; outputs "
                f"{'checked against reference pins' if pinned else 'checked on a reference prefix'}")
    report.note("  per config: " + ", ".join(f"{k} {v:.3f}s" for k, v in per_cfg.items()))
    cs = outputs["cleaning"]["cleaning"]
    report.note(f"  cleaning: {cs['cleanings']} episodes, {cs['zone_resets']} zone resets, "
                f"{cs['relocated_sectors']} relocated sectors")
    out = {
        "setup_s": median(ingest_s),
        "wall_s": median(walls),
        "unit_ms": lat_ms,
        "counters": counters,
        "cleaning": cs,
        "ops": sum(sizes.values()),
        "sizes": sizes,
    }
    if trace:
        from repro.extentmap.array_map import ArrayExtentMap
        from repro.trace.store import load_trace

        tracer.patch_function(load_trace, "trace.parse")
        tracer.patch_method(ArrayExtentMap, "map_range_batch", "extentmap.map_batch")
        tracer.patch_method(ArrayExtentMap, "lookup_pieces_batch", "extentmap.lookup_batch")
        with tracer.span("ingest") as ing:
            ingest(files)
        out["ingest_sid"] = ing.sid
        with tracer.span("replay-long") as root:
            traced_wall, traced_out, _, _, _ = one_pass(traces, tracer)
        tracer.restore()
        out["root_sid"] = root.sid
        out["traced_wall_s"] = traced_wall
        if traced_out != outputs:
            report.mismatch("traced pass produced different outputs than the untraced pass")
            report.failed += 1
    return out
