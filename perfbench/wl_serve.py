"""``serve``: the streaming daemon under open-loop tenant traffic.

``python -m repro serve`` runs as its own process with default settings
but a deeper per-tenant queue (:data:`QUEUE_DEPTH` says why).
Two tenants on LS send the ``read_hot`` and ``user_heavy`` mixtures from
one single-threaded generator (a ``selectors`` loop, one connection per
tenant) at steady arrivals in three ascending phases.  Each batch is
timed from when it was *due*, not from when it was sent, so a stall in
the daemon is charged to every batch that queued behind it; the
generator's own lateness (send time minus due time) is reported beside.

Live ``stats`` queries ride the tenant connections on a fixed cadence,
so they queue behind applies in the tenant's FIFO, as a monitoring
client's would.

Why not ``run_load``: its client thread only reads acks once its window
of in-flight batches is full, so its latency figure is set by the window
(32 batches x 2000 ops / 50k op/s per tenant = 1280 ms), not by the
daemon.  See ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import ROOT, median, out_dir, p50, tail
from inputs import mixture

#: Tenants: (name, Table-I mixture preset).
TENANTS = (("t_read_hot", "read_hot"), ("t_user_heavy", "user_heavy"))
#: Ops per apply batch.  Every phase must send >= 1000 batches inside
#: the run, and the open-loop knee in *batches*/s is highest for small
#: batches (per-group costs such as the WAL fsync dominate).
BATCH_OPS = 32
#: Combined offered rates (op/s) of the three phases: about 20/45/70 % of
#: the open-loop knee (~24k op/s with these batches and queries on a
#: 2-CPU host) that ``knee.py`` measures.  See NOTES.md.
PHASES = (("low", 5_000), ("mid", 11_000), ("high", 17_000))
#: Live stats query cadence, per tenant (>= 1000 queries per run, so the
#: query p99 has 10 samples beyond it).
QUERY_INTERVAL_S = 0.04
#: The one non-default daemon setting.  With the default per-tenant queue
#: of 16, a session checkpoint (every 50k ops, hundreds of ms on this
#: traffic) queues more than 16 requests even at the low phase, the
#: daemon sheds, and every later batch of that tenant fails on a
#: sequence gap.  See NOTES.md.
QUEUE_DEPTH = 256
#: Tenant whose batches the traced in-process replay re-applies (the
#: write-heavier one; one tenant keeps the traced run short).
INPROC_TENANT = 1
#: Apply p99 limit for ``slo_ops_per_s``.
SLO_P99_MS = 50.0
#: Mean lateness growth (last quarter minus first quarter of a phase)
#: above which the generator counts as falling behind.
LATE_GROWTH_MS = 5.0


def phase_batches(seconds: float) -> List[int]:
    """Batches per tenant per phase, splitting the run evenly by batches.

    Equal batch counts per phase means the slow phase takes longest;
    the split is sized so the three phases together take ``seconds``.
    """
    per_batch_s = sum(2 * BATCH_OPS / rate for _, rate in PHASES)
    n = int(seconds / per_batch_s)
    return [n] * len(PHASES)


# --------------------------------------------------------------------- #
# Daemon lifecycle
# --------------------------------------------------------------------- #


class Daemon:
    """One ``repro serve`` process, spawned and stopped by the benchmark."""

    def __init__(self, root: Path) -> None:
        self.root = root
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root), "--port", "0",
             "--queue-depth", str(QUEUE_DEPTH)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=str(ROOT),
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mib(self) -> float:
        """Sum of the peak RSS (VmHWM) of the daemon and its descendants."""
        total = 0
        todo = [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                for task in Path(f"/proc/{pid}/task").iterdir():
                    kids = (task / "children").read_text().split()
                    todo.extend(int(k) for k in kids)
            except OSError:
                continue
        return total / 1024.0

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        if self.proc.poll() is None:
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=10) as s:
                    s.sendall(b'{"op": "shutdown"}\n')
                    s.recv(4096)
            except (OSError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _request(sock_file, payload: dict) -> dict:
    sock_file.write(json.dumps(payload).encode() + b"\n")
    sock_file.flush()
    return json.loads(sock_file.readline())


def open_tenants(port: int, capacities: Dict[str, int]) -> List[socket.socket]:
    """hello + open for every tenant, one blocking connection each."""
    from repro.core.config import LS, config_to_dict

    socks = []
    for name, _ in TENANTS:
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        f = sock.makefile("rwb")
        hello = _request(f, {"op": "hello"})
        if "bin" not in hello.get("wires", ()):
            raise RuntimeError(f"daemon does not offer the bin wire: {hello}")
        resp = _request(f, {"op": "open", "tenant": name, "config": config_to_dict(LS),
                            "capacity_sectors": int(capacities[name])})
        if not resp.get("ok") or int(resp.get("applied_seq", -1)) != 0:
            raise RuntimeError(f"open {name} failed: {resp}")
        f.close()
        socks.append(sock)
    return socks


# --------------------------------------------------------------------- #
# Open-loop generator
# --------------------------------------------------------------------- #


def schedule(n_per_phase: List[int]):
    """Due times (s from t0) for every apply and query event.

    Returns a list of ``(due, kind, tenant_idx, batch_idx, phase_idx)``
    sorted by due time; tenants are offset by half an interval so the
    combined arrival stream is evenly spaced.
    """
    events = []
    t = 0.0
    batch_base = 0
    for p, ((_, rate), n) in enumerate(zip(PHASES, n_per_phase)):
        interval = 2 * BATCH_OPS / rate  # per tenant
        for k in range(n):
            for ti in range(len(TENANTS)):
                events.append((t + (k + ti / len(TENANTS)) * interval, 0, ti, batch_base + k, p))
        t += n * interval
        batch_base += n
    n_queries = int(t / QUERY_INTERVAL_S)
    for j in range(n_queries):
        for ti in range(len(TENANTS)):
            events.append(((j + ti / len(TENANTS)) * QUERY_INTERVAL_S, 1, ti, -1, -1))
    events.sort()
    return events


def drive(socks, columns, n_per_phase) -> dict:
    """Run the open-loop schedule; returns raw per-event measurements."""
    from repro.service.wire import encode_payload, payload_crc

    events = schedule(n_per_phase)
    n_phase = len(PHASES)
    sel = selectors.DefaultSelector()
    outbuf = [bytearray() for _ in socks]
    inbuf = [bytearray() for _ in socks]
    expect: List[deque] = [deque() for _ in socks]
    for ti, sock in enumerate(socks):
        sock.setblocking(False)
        sel.register(sock, selectors.EVENT_READ, ti)
    write_interest = [False] * len(socks)

    apply_lat: List[List[float]] = [[] for _ in range(n_phase)]
    late: List[List[float]] = [[] for _ in range(n_phase)]
    query_lat: List[float] = []
    errors: List[str] = []
    encode_s = 0.0
    sheds = 0
    failed_batches = 0
    failed_queries = 0
    ack_bursts: List[int] = []
    outstanding = 0

    def flush(ti: int) -> None:
        buf = outbuf[ti]
        if buf:
            try:
                sent = socks[ti].send(buf)
                del buf[:sent]
            except BlockingIOError:
                pass
        want = bool(buf)
        if want != write_interest[ti]:
            write_interest[ti] = want
            mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            sel.modify(socks[ti], mask, ti)

    t0 = time.perf_counter() + 0.05
    i = 0
    n_events = len(events)
    deadline = None
    while i < n_events or outstanding:
        now = time.perf_counter() - t0
        while i < n_events and events[i][0] <= now:
            due, kind, ti, k, p = events[i]
            name = TENANTS[ti][0]
            if kind == 0:
                is_read, lba, length = columns[ti]
                s, e = k * BATCH_OPS, (k + 1) * BATCH_OPS
                e0 = time.perf_counter()
                payload = encode_payload(is_read[s:e], lba[s:e], length[s:e])
                header = {"op": "apply", "tenant": name, "seq": k + 1, "wire": "bin",
                          "n": e - s, "crc": payload_crc(payload)}
                frame = json.dumps(header).encode() + b"\n" + payload
                encode_s += time.perf_counter() - e0
                outbuf[ti] += frame
                late[p].append((time.perf_counter() - t0 - due) * 1e3)
                expect[ti].append((0, due, p))
            else:
                outbuf[ti] += json.dumps({"op": "query", "tenant": name, "kind": "stats"}).encode() + b"\n"
                expect[ti].append((1, due, -1))
            outstanding += 1
            i += 1
        for ti in range(len(socks)):
            flush(ti)
        if i >= n_events:
            if deadline is None:
                deadline = time.perf_counter() + 60.0
            elif time.perf_counter() > deadline:
                raise TimeoutError(f"{outstanding} responses still outstanding after 60 s")
        timeout = 0.5 if i >= n_events else max(0.0, events[i][0] - (time.perf_counter() - t0))
        for key, mask in sel.select(timeout):
            ti = key.data
            if mask & selectors.EVENT_WRITE:
                flush(ti)
            if not mask & selectors.EVENT_READ:
                continue
            try:
                chunk = socks[ti].recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                raise ConnectionError("daemon closed a tenant connection")
            now = time.perf_counter() - t0
            buf = inbuf[ti]
            buf += chunk
            acks_here = 0
            while True:
                nl = buf.find(b"\n")
                if nl < 0:
                    break
                line = bytes(buf[:nl])
                del buf[: nl + 1]
                kind, due, p = expect[ti].popleft()
                outstanding -= 1
                resp = json.loads(line)
                if kind == 0:
                    acks_here += 1
                    apply_lat[p].append((now - due) * 1e3)
                    bad = not resp.get("ok") or resp.get("duplicate")
                    failed_batches += bool(bad)
                    sheds += bool(resp.get("shed"))
                else:
                    query_lat.append((now - due) * 1e3)
                    bad = not resp.get("ok")
                    failed_queries += bool(bad)
                if bad and len(errors) < 5:
                    errors.append(str(resp))
            if acks_here:
                ack_bursts.append(acks_here)
    window_s = time.perf_counter() - t0
    for sock in socks:
        sel.unregister(sock)
        sock.setblocking(True)
    sel.close()
    return {
        "apply_lat": apply_lat, "late": late, "query_lat": query_lat,
        "errors": errors, "encode_s": encode_s, "sheds": sheds,
        "failed_batches": failed_batches, "failed_queries": failed_queries,
        "ack_bursts": ack_bursts,
        "window_s": window_s,
    }


def final_stats(socks) -> List[dict]:
    out = []
    for (name, _), sock in zip(TENANTS, socks):
        f = sock.makefile("rwb")
        resp = _request(f, {"op": "query", "tenant": name, "kind": "stats"})
        f.close()
        if not resp.get("ok"):
            raise RuntimeError(f"final stats for {name}: {resp}")
        out.append(resp["result"])
    return out


def offline_stats(columns, capacity: int) -> dict:
    """What the daemon must report: a one-shot batch replay of the ops."""
    from repro.core.batch import IncrementalBatchReplay
    from repro.core.config import LS, build_translator_for_base
    from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier

    engine = IncrementalBatchReplay(
        build_translator_for_base(capacity, LS, resolve_map_tier(DEFAULT_KERNEL_TIER))
    )
    engine.feed_arrays(*columns)
    stats = engine.stats()
    return {f: getattr(stats, f) for f in stats.__dataclass_fields__}


def growing(late_ms: List[float]) -> bool:
    q = max(1, len(late_ms) // 4)
    return (np.mean(late_ms[-q:]) - np.mean(late_ms[:q])) > LATE_GROWTH_MS


# --------------------------------------------------------------------- #
# Traced in-process replay through ReplaySession
# --------------------------------------------------------------------- #


def session_replay(columns, capacities, group: int, queries_per_batch: float,
                   root: Path, tracer=None) -> Tuple[float, int, int]:
    """Re-apply one tenant's served batches through ``ReplaySession`` here.

    Groups of ``group`` consecutive batches go through
    ``apply_group_payload`` exactly as the daemon's coalescer hands them
    to a worker; ``stats`` queries are interleaved at the served ratio.
    With a tracer, spans wrap each service layer's public entry points.
    Returns ``(wall_s, batches, root span id or -1)``.
    """
    from repro.core.batch import IncrementalBatchReplay
    from repro.core.config import LS
    from repro.service import wire
    from repro.service.checkpoint import CheckpointStore
    from repro.service.journal import OpJournal
    from repro.service.session import ReplaySession

    shutil.rmtree(root, ignore_errors=True)
    if tracer is not None:
        tracer.patch_function(wire.split_group_payload, "wire.decode")
        tracer.patch_method(OpJournal, "append_group", "journal.append",
                            key=lambda self, first_seq, counts, payload: len(payload) + 4 * len(counts))
        tracer.patch_method(IncrementalBatchReplay, "feed_arrays", "batch.feed")
        tracer.patch_method(CheckpointStore, "save", "checkpoint.save")
        tracer.patch_method(ReplaySession, "query", "session.query")
    batches = 0
    root_sid = tracer.open("session_replay") if tracer is not None else -1
    t0 = time.perf_counter()
    try:
        name = TENANTS[INPROC_TENANT][0]
        is_read, lba, length = columns[INPROC_TENANT]
        session = ReplaySession.create(name, root / name, LS, capacities[name])
        n_batches = len(lba) // BATCH_OPS
        debt = 0.0
        for first in range(0, n_batches, group):
            k = min(group, n_batches - first)
            s, e = first * BATCH_OPS, (first + k) * BATCH_OPS
            payload = wire.encode_payload(is_read[s:e], lba[s:e], length[s:e])
            acks = session.apply_group_payload(first + 1, [BATCH_OPS] * k, payload)
            if not all(a.get("ok") for a in acks):
                raise RuntimeError(f"in-process apply failed: {acks[:1]}")
            batches += k
            debt += k * queries_per_batch
            while debt >= 1.0:
                session.query("stats")
                debt -= 1.0
        session.close()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root_sid)
            tracer.restore()
    return wall, batches, root_sid


# --------------------------------------------------------------------- #
# Workload entry point
# --------------------------------------------------------------------- #


def run(report, seed: int, seconds: int, trace: bool, tracer=None) -> dict:
    n_per_phase = phase_batches(seconds)
    ops = sum(n_per_phase) * BATCH_OPS
    # Inputs (outside every timed window).
    columns, capacities = [], {}
    for name, preset_name in TENANTS:
        is_read, lba, length, cap = mixture(preset_name, ops, seed)
        columns.append((is_read[:ops], lba[:ops], length[:ops]))
        capacities[name] = cap

    base = out_dir("serve")
    spawn_s, open_s = [], []
    for rep in range(3):
        root = base / f"root{rep}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        daemon = Daemon(root)
        t1 = time.perf_counter()
        try:
            socks = open_tenants(daemon.port, capacities)
        except BaseException:
            daemon.stop()
            raise
        t2 = time.perf_counter()
        spawn_s.append(t1 - t0)
        open_s.append(t2 - t1)
        if rep < 2:
            for s in socks:
                s.close()
            daemon.stop()
    try:
        measured = drive(socks, columns, n_per_phase)
        served = final_stats(socks)
        rss = daemon.peak_rss_mib()
    finally:
        for s in socks:
            s.close()
        daemon.stop()

    # ---- correctness: daemon stats == offline replay of the same ops.
    for ti, (name, _) in enumerate(TENANTS):
        want = offline_stats(columns[ti], capacities[name])
        if served[ti] != want:
            report.mismatch(f"serve {name}: daemon stats {served[ti]} != offline {want}")
    for err in measured["errors"]:
        report.note(f"  error response: {err}")

    n_batches = sum(len(x) for x in measured["apply_lat"])
    report.attempted = n_batches + len(measured["query_lat"])
    report.failed = measured["failed_batches"] + measured["failed_queries"]
    failed_frac = report.failed / max(1, report.attempted)

    setup = [a + b for a, b in zip(spawn_s, open_s)]
    all_lat = [x for ph in measured["apply_lat"] for x in ph]
    out = {
        "setup_s": median(setup),
        "wall_s": measured["window_s"],
        "peak_rss_mib": rss,
        "all_lat": all_lat,
        "failed_frac": failed_frac,
        "spawn_s": median(spawn_s),
        "open_s": median(open_s),
    }

    slo = 0.0
    phase_rows = []
    for p, (pname, rate) in enumerate(PHASES):
        lat, late = measured["apply_lat"][p], measured["late"][p]
        t99, label = tail(lat)
        l99, llabel = tail(late)
        ok = (t99 <= SLO_P99_MS and label == "p99" and not growing(late)
              and measured["failed_batches"] == 0)
        if ok:
            slo = float(rate)
        phase_rows.append((pname, rate, p50(lat), t99, label, len(lat), l99, llabel, growing(late)))
        out[f"apply_p50_ms.{pname}"] = p50(lat)
        out[f"apply_p99_ms.{pname}"] = t99
        out[f"load.late_p99_ms.{pname}"] = l99
    q99, qlabel = tail(measured["query_lat"])
    out["query_p50_ms"] = p50(measured["query_lat"])
    out["query_p99_ms"] = q99
    out["slo_ops_per_s"] = slo
    out["encode_s"] = measured["encode_s"]
    out["sheds"] = measured["sheds"]
    out["ack_burst_mean"] = float(np.mean(measured["ack_bursts"])) if measured["ack_bursts"] else 0.0

    report.note(f"serve: {len(TENANTS)} tenants x {ops} ops, batch {BATCH_OPS} ops, "
                f"phases {[(n, r) for n, r in PHASES]} op/s, {n_per_phase[0]} batches/tenant/phase")
    for pname, rate, a50, a99, label, n, l99, llabel, grow in phase_rows:
        report.note(f"  phase {pname:<4} {rate:>7} op/s: apply p50 {a50:8.3f} ms, {label} {a99:8.3f} ms "
                    f"(n={n}); generator late {llabel} {l99:.3f} ms; growing lateness: {grow}")
    report.note(f"  live stats queries: p50 {out['query_p50_ms']:.3f} ms, {qlabel} {q99:.3f} ms "
                f"(n={len(measured['query_lat'])})")
    report.note(f"  slo_ops_per_s {slo:.0f} (apply p99 <= {SLO_P99_MS} ms, no failures, "
                f"no growing lateness); failed_frac {failed_frac:.6f} "
                f"({report.failed}/{report.attempted})")

    if trace:
        groups = max(1, round(out["ack_burst_mean"]))
        qpb = len(measured["query_lat"]) / max(1, n_batches)
        sroot = base / "session"
        untraced, _, _ = session_replay(columns, capacities, groups, qpb, sroot)
        traced, batches, sid = session_replay(columns, capacities, groups, qpb, sroot, tracer)
        times = tracer.self_times(sid)
        stage_ms = sum(times.values()) * 1e3 / max(1, batches)
        out.update({
            "root_sid": sid,
            "inproc_batches": batches,
            "untraced_wall_s": untraced,
            "traced_wall_s": traced,
            "fsyncs": tracer.span_count("journal.append"),
            "journal_bytes": sum(key * cnt for (name, key), cnt in tracer.counts.items()
                                 if name == "journal.append"),
            "checkpoints": tracer.span_count("checkpoint.save"),
            "other_ms_per_batch": out["apply_p50_ms.low"] - stage_ms,
        })
        report.note(f"  in-process ReplaySession replay: {batches} batches in groups of {groups}; "
                    f"{stage_ms:.4f} ms/batch in process against a socket apply p50 of "
                    f"{out['apply_p50_ms.low']:.4f} ms (low phase)")
    return out
