"""Seeded benchmark inputs, generated outside every timed window.

Inputs are a pure function of ``(seed, size)`` and are cached on disk
under ``.perfbench-out/inputs`` keyed by both; each cache entry carries
the SHA-256 of its op columns, re-checked whenever it is used, so a stale
or torn entry is regenerated instead of silently replayed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple

import numpy as np

from common import array_digest, out_dir

#: The ``replay-long`` traces: a read-heavy and a write-heavy archetype.
LONG_TRACES = (("hm_1", 500_000), ("w84", 500_000))


#: Seeds whose inputs stay cached; older entries are removed.
KEEP_SEEDS = 12


def _cache(name: str) -> Path:
    return out_dir("inputs") / name


def prune(keep: int = KEEP_SEEDS) -> None:
    """Drop the inputs of all but the ``keep`` most recently used seeds."""
    files = sorted(out_dir("inputs").iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    seeds = []
    for path in files:
        seed = path.name.split("-seed", 1)[-1].split("-", 1)[0]
        if seed not in seeds:
            seeds.append(seed)
        if seeds.index(seed) >= keep:
            path.unlink(missing_ok=True)


def long_trace_file(name: str, ops: int, seed: int) -> Tuple[Path, str]:
    """MSR file for one ``replay-long`` trace and its column digest."""
    from repro.trace.writers import write_msr_trace
    from repro.workloads import synthesize_workload
    from repro.workloads.table1 import get_spec

    path = _cache(f"{name}-seed{seed}-ops{ops}.msr.csv")
    side = path.with_suffix(".json")
    if path.is_file() and side.is_file():
        digest = json.loads(side.read_text()).get("columns_sha256")
        if digest:
            path.touch()
            side.touch()
            return path, digest
    trace = synthesize_workload(
        name, seed=seed, scale=ops / get_spec(name).total_ops
    )
    digest = array_digest(*trace.as_arrays())
    tmp = path.with_suffix(".tmp")
    write_msr_trace(trace, tmp)
    tmp.replace(path)
    side.write_text(json.dumps({"columns_sha256": digest, "ops": len(trace)}))
    prune()
    return path, digest


def mixture(preset_name: str, ops: int, seed: int):
    """``(is_read, lba, length, capacity)`` for one serve tenant."""
    from repro.load.mixture import build_mixture, preset

    path = _cache(f"mix-{preset_name}-seed{seed}-ops{ops}.npz")
    if path.is_file():
        try:
            with np.load(path) as data:
                cols = (data["is_read"], data["lba"], data["length"])
                capacity = int(data["capacity"])
                digest = str(data["digest"])
            if array_digest(*cols) == digest:
                path.touch()
                return cols + (capacity,)
        except (OSError, KeyError, ValueError):
            pass
    is_read, lba, length, capacity = build_mixture(preset(preset_name), ops, seed=seed)
    cols = (
        np.ascontiguousarray(is_read, dtype=bool),
        np.ascontiguousarray(lba, dtype=np.int64),
        np.ascontiguousarray(length, dtype=np.int64),
    )
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(tmp, is_read=cols[0], lba=cols[1], length=cols[2],
             capacity=capacity, digest=array_digest(*cols))
    tmp.replace(path)
    prune()
    return cols + (int(capacity),)
