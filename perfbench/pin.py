"""Regenerate ``pins.json``: the outputs the benchmark checks exactly.

Pins come from the reference paths, not from the fast ones the benchmark
times: exhibit JSON from ``run_exhibits(fast=False)``, and every
``replay-long`` config from the reference ``Simulator`` with a seek log.
Pinned are the default seed and the held-out seed.  Run it only when the
program's simulated outputs are meant to change:

    python3 perfbench/pin.py            # a few minutes on 2 CPUs
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import DEFAULT_SEED, HELD_OUT_SEED, ROOT, out_dir  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import wl_exhibits  # noqa: E402
import wl_replay  # noqa: E402


def pin_exhibits(seed: int) -> dict:
    from repro.experiments.runner import run_exhibits

    dest = out_dir("pin") / f"exhibits-{seed}"
    shutil.rmtree(dest, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        outcomes = run_exhibits(list(wl_exhibits.EXHIBITS), seed=seed, scale=wl_exhibits.SCALE,
                                out_dir=str(dest), fast=False, jobs=1, echo=lambda _l: None)
    if not all(o.ok for o in outcomes):
        raise RuntimeError(f"reference exhibit run failed: {outcomes}")
    return wl_exhibits.digests(dest)


def pin_replay(seed: int) -> dict:
    from repro.trace.store import load_trace

    files = wl_replay.ensure_inputs(seed)
    traces = {name: load_trace(path, "msr") for name, (path, _) in files.items()}
    pins = {}
    for family, tname, kind in wl_replay.CONFIGS:
        trace = traces[tname]
        pins[family] = wl_replay.reference_outputs(trace, wl_replay.build(family, kind, trace))
        print(f"  seed {seed} {family}: {pins[family]['stats']['read_seeks']} read seeks",
              flush=True)
    return pins


def main() -> int:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    pins.setdefault("exhibits", {})
    pins.setdefault("replay", {})
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        pins["exhibits"][f"seed{seed}-scale{wl_exhibits.SCALE}"] = pin_exhibits(seed)
        print(f"exhibits seed {seed} pinned", flush=True)
        pins["replay"][f"seed{seed}"] = pin_replay(seed)
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
