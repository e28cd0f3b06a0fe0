"""Find the daemon's open-loop knee for the ``serve`` traffic.

Drives a fresh ``repro serve`` with the ``serve`` workload's tenants,
batch size and query cadence at a ladder of steady combined rates, a few
seconds each, and prints per rate the apply p50/p99 and whether the
backlog grew (mean latency of the last quarter of the step more than
twice that of the first quarter plus 10 ms).  The knee is the highest
rate before the first step whose backlog grew; ``wl_serve.PHASES`` sit
at about 20/45/70 % of it.

    python3 perfbench/knee.py --rates 14000 20000 26000 30000 34000
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import DEFAULT_SEED, ROOT, out_dir  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import wl_serve  # noqa: E402
from inputs import mixture  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", type=int, nargs="+",
                        default=[14000, 20000, 26000, 30000, 34000])
    parser.add_argument("--step-seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    wl_serve.PHASES = tuple((f"r{r}", r) for r in args.rates)
    n = [int(args.step_seconds * r / (2 * wl_serve.BATCH_OPS)) for r in args.rates]
    ops = sum(n) * wl_serve.BATCH_OPS
    cols, caps = [], {}
    for name, preset_name in wl_serve.TENANTS:
        is_read, lba, length, cap = mixture(preset_name, ops, args.seed)
        cols.append((is_read[:ops], lba[:ops], length[:ops]))
        caps[name] = cap
    root = out_dir("knee")
    shutil.rmtree(root, ignore_errors=True)
    daemon = wl_serve.Daemon(root)
    try:
        socks = wl_serve.open_tenants(daemon.port, caps)
        try:
            measured = wl_serve.drive(socks, cols, n)
        finally:
            for sock in socks:
                sock.close()
    finally:
        daemon.stop()
    knee = None
    for p, rate in enumerate(args.rates):
        lat = np.asarray(measured["apply_lat"][p])
        q = max(1, len(lat) // 4)
        grew = lat[-q:].mean() > 2 * lat[:q].mean() + 10.0
        if grew and knee is None:
            knee = args.rates[p - 1] if p else 0
        print(json.dumps({"rate": rate, "batches": int(len(lat)),
                          "p50_ms": round(float(np.percentile(lat, 50)), 3),
                          "p99_ms": round(float(np.percentile(lat, 99)), 3),
                          "backlog_grew": bool(grew)}))
    print(json.dumps({"batch_ops": wl_serve.BATCH_OPS,
                      "knee_ops_per_s": knee if knee is not None else f">={args.rates[-1]}",
                      "failed_batches": measured["failed_batches"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
