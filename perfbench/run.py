"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload exhibits|replay-long|serve \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the checkout root.  Inputs are generated from ``--seed``
outside every timed window.  The report lists every metric with its unit
and sample counts; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes an
untraced and a traced pass and reports the per-layer metrics (span self
times, see ``tracing.py``) plus the tracing overhead.  Any output that
does not match its check makes the command exit 1.

See ``NOTES.md`` for what each workload and metric stands for.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    Report,
    out_dir,
    p50,
    run_record,
    tail,
)

WORKLOADS = ("exhibits", "replay-long", "serve")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _src_ready() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def layer_specs():
    return json.loads((HERE / "layers.json").read_text())["metrics"]


def end_to_end(report: Report, out: dict, units, unit_name: str, rss: float) -> None:
    report.metric("setup_s", out["setup_s"], "s", "median of the set-up repetitions")
    report.metric("wall_s", out["wall_s"], "s", "measured work")
    report.metric("peak_rss_mib", rss, "MiB")
    # Unit latencies are printed, not gated: see NOTES.md.
    t, label = tail(units)
    report.note(f"  latency per {unit_name}: p50 {p50(units):.4f} ms, {label} {t:.4f} ms "
                f"(n={len(units)})")


def per_layer(report: Report, workload: str, out: dict, tracer) -> None:
    """Fill every per-layer metric; layers this workload never calls read 0."""
    values = {spec["name"]: 0.0 for spec in layer_specs()}
    root = out["root_sid"]
    times = tracer.self_times(root)
    traced_wall = out.get("traced_wall_s", 0.0)

    def t(name):
        return times.get(name, 0.0)

    if workload == "exhibits":
        values.update({
            "workloads.synthesize_s": t("workloads.synthesize"),
            "workloads.synth_per_trace": out["synth_per_trace"],
            "stream.record_s": t("stream.record"),
            "stream.record_per_trace": out["record_per_trace"],
            "stream.replay_s": t("stream.replay"),
            "stream.cache_sweep_s": t("stream.cache_sweep"),
            "analysis.s": t("analysis"),
            "experiments.save_s": t("experiments.save"),
            "other_s": t("exhibits"),
            "batch.replay_s": t("batch.replay"),
            "batch.fallbacks": out["fallbacks"],
            "extentmap.map_batch_s": t("extentmap.map_batch"),
            "extentmap.lookup_batch_s": t("extentmap.lookup_batch"),
        })
        for name in ("table1", "fig2", "fig11", "ablation_combined", "taxonomy"):
            values[f"exhibit.{name}_s"] = t(f"exhibit.{name}")
    elif workload == "replay-long":
        parse = tracer.self_times(out["ingest_sid"])
        parse_s = sum(parse.values())
        values.update({
            "trace.parse_s": parse_s,
            "trace.parse_ops_per_s": out["ops"] / parse_s if parse_s else 0.0,
            "other_s": t("replay-long"),
            "extentmap.map_batch_s": t("extentmap.map_batch"),
            "extentmap.lookup_batch_s": t("extentmap.lookup_batch"),
            "batch.policy_s": t("batch.ls_all") - t("batch.ls_read"),
            "cleaning.zone_resets": out["cleaning"]["zone_resets"],
            "cleaning.relocated_sectors": out["cleaning"]["relocated_sectors"],
        })
        for family in ("nols", "ls_read", "ls_all", "ls_write", "cleaning", "multifrontier"):
            values[f"batch.{family}_s"] = t(f"batch.{family}")
            for kind, v in out["counters"].get(family, {}).items():
                values[f"extentmap.{kind}.{family}"] = v
    else:
        batches = max(1, out["inproc_batches"])
        values.update({
            "setup.spawn_s": out["spawn_s"],
            "setup.open_s": out["open_s"],
            "serve.encode_s": out["encode_s"],
            "serve.ack_burst_mean": out["ack_burst_mean"],
            "serve.sheds": out["sheds"],
            "query_p50_ms": out["query_p50_ms"],
            "query_p99_ms": out["query_p99_ms"],
            "slo_ops_per_s": out["slo_ops_per_s"],
            "failed_frac": out["failed_frac"],
            "wire.decode_s": t("wire.decode"),
            "journal.append_s": t("journal.append"),
            "journal.fsyncs": out["fsyncs"],
            "journal.bytes_per_op": out["journal_bytes"] / (batches * out["batch_ops"]),
            "batch.feed_s": t("batch.feed"),
            "checkpoint.save_s": t("checkpoint.save"),
            "checkpoint.count": out["checkpoints"],
            "session.query_s": t("session.query"),
            "daemon.other_ms_per_batch": out["other_ms_per_batch"],
            "other_s": t("session_replay"),
        })
        for ph in ("low", "mid", "high"):
            for key in (f"apply_p50_ms.{ph}", f"apply_p99_ms.{ph}", f"load.late_p99_ms.{ph}"):
                values[key] = out[key]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - out.get("untraced_wall_s", out["wall_s"])

    accounted = sum(times.values())
    root_s = (tracer.end[root] - tracer.start[root]) / 1e9
    report.note(f"  traced pass: wall {traced_wall:.4f} s; root span {root_s:.4f} s = self times "
                f"of all spans incl. other_s {accounted:.4f} s; tracing overhead "
                f"{values['trace.overhead_s']:+.4f} s vs the untraced pass (host noise "
                f"dominates it: {len(tracer.start)} spans in all)")
    for name, secs in sorted(times.items(), key=lambda kv: -kv[1]):
        report.note(f"    self {name:<28} {secs:10.4f} s")
    for spec in layer_specs():
        report.metric(spec["name"], values[spec["name"]], spec["unit"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _src_ready():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import self_peak_rss_mib
    from tracing import Tracer

    trace = bool(args.trace)
    run_id = f"{args.workload}-seed{args.seed}-{int(time.time() * 1000)}"
    record = run_record(args.workload, args.seed, args.seconds, trace, run_id=run_id)
    report = Report()
    tracer = Tracer(run_id) if trace else None
    if args.workload == "exhibits":
        import wl_exhibits as wl
    elif args.workload == "replay-long":
        import wl_replay as wl
    else:
        import wl_serve as wl
    out = wl.run(report, args.seed, args.seconds, trace, tracer)

    if args.workload == "serve":
        units, unit_name, rss = out["all_lat"], "apply batch (due to ack)", out["peak_rss_mib"]
        record.update({"phases": [list(p) for p in wl.PHASES], "batch_ops": wl.BATCH_OPS,
                       "slo_ops_per_s": out["slo_ops_per_s"]})
        out["batch_ops"] = wl.BATCH_OPS
    elif args.workload == "replay-long":
        units, unit_name, rss = out["unit_ms"], "kernel chunk", self_peak_rss_mib()
        record.update({"input_ops": out["sizes"]})
    else:
        units = [s * 1e3 for s in out["unit_s"]]
        unit_name, rss = "exhibit", self_peak_rss_mib()
        record.update({"scale": wl.SCALE, "exhibits": list(wl.EXHIBITS)})
    record["failed_frac"] = report.failed / max(1, report.attempted)
    report.note(f"failed_frac {record['failed_frac']:.6f} ({report.failed} failed of "
                f"{report.attempted} attempted)")

    if trace:
        per_layer(report, args.workload, out, tracer)
        spans_path = out_dir("spans") / f"{run_id}.json.gz"
        tracer.dump(spans_path)
        report.note(f"  spans written to {spans_path.relative_to(ROOT)}")
        wanted = [spec["name"] for spec in layer_specs()]
    else:
        end_to_end(report, out, units, unit_name, rss)
        wanted = [name for name, _ in END_TO_END]
    record["metrics"] = report.metrics
    record["correct"] = not report.failures
    (out_dir("runs") / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str))
    report.note(f"run record: cpu_count={record['cpu_count']} python={record['python']} "
                f"numpy={record['numpy']} source={record['source']} gc={record['gc']}")
    return report.emit(wanted)


if __name__ == "__main__":
    sys.exit(main())
