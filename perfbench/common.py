"""Shared helpers: paths, timing statistics, the run record, output."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes goes under here (git-ignored).
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 42
#: Seed never used while tuning the benchmark; its outputs are pinned too.
HELD_OUT_SEED = 7


def out_dir(*parts: str) -> Path:
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(samples: Sequence[float]) -> Tuple[float, str]:
    """The highest of p99/p95/p90 with >= 10 samples beyond it, else max.

    Returns ``(value, label)``; the label says which percentile it is.
    """
    import numpy as np

    n = len(samples)
    if n == 0:
        return float("nan"), "none"
    arr = np.asarray(samples, dtype=np.float64)
    for q, label in ((99.0, "p99"), (95.0, "p95"), (90.0, "p90")):
        if n * (100.0 - q) / 100.0 >= 10:
            return float(np.percentile(arr, q)), label
    return float(arr.max()), "max"


def p50(samples: Sequence[float]) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=np.float64), 50)) if len(samples) else float("nan")


def self_peak_rss_mib() -> float:
    """Peak RSS of this process, MiB (children only generate inputs or
    time set-up, so they are left out)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def array_digest(*arrays) -> str:
    """SHA-256 over the raw bytes of numpy arrays (input identity)."""
    import numpy as np

    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def source_identity() -> str:
    """The git commit when the checkout is a repository, else a digest
    of every file under ``src/`` (the checkout may not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_record(workload: str, seed: int, seconds: int, trace: bool, **extra) -> dict:
    import gc

    import numpy as np

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source": source_identity(),
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold())},
        "started_at_unix": time.time(),
    }
    record.update(extra)
    return record


class Report:
    """Collects metrics and notes; prints the human report + JSON line."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.lines: List[str] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"  {name:<36} {value:>14.6g} {unit:<8} {note}")

    def note(self, text: str) -> None:
        self.lines.append(text)

    def mismatch(self, what: str) -> None:
        self.failures.append(what)
        self.lines.append(f"  MISMATCH: {what}")

    def emit(self, wanted: Sequence[str]) -> int:
        import json

        for line in self.lines:
            print(line)
        missing = [n for n in wanted if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        correct = not self.failures
        result = {
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {n: self.metrics[n] for n in wanted},
        }
        sys.stdout.flush()
        print(json.dumps(result))
        return 0 if correct else 1
