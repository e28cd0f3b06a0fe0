"""Workload taxonomy (paper §I/§III).

The paper sorts workloads into three groups by their response to
log-structured translation: *log-friendly* (a net decrease in seeks),
*log-sensitive* (amplifications of 10x or more in the extreme) and
*log-agnostic* (little change).  This module derives the classification
from replay results, and extracts the trace-level features that predict
it — write intensity (§V's explanation for the MSR group), sequential-read
share (§III's amplification mechanism) and overwrite ratio (what creates
fragments at all).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.outcomes import SimStats
from repro.trace.trace import Trace


class LogSensitivity(enum.Enum):
    """The paper's three-way workload classification."""

    LOG_FRIENDLY = "log-friendly"
    LOG_AGNOSTIC = "log-agnostic"
    LOG_SENSITIVE = "log-sensitive"


def classify_saf(
    total_saf: float,
    friendly_below: float = 0.9,
    sensitive_above: float = 1.1,
) -> LogSensitivity:
    """Classify a workload by its total seek amplification factor."""
    if total_saf < 0:
        raise ValueError(f"total_saf must be >= 0, got {total_saf}")
    if friendly_below >= sensitive_above:
        raise ValueError("friendly_below must be < sensitive_above")
    if total_saf <= friendly_below:
        return LogSensitivity.LOG_FRIENDLY
    if total_saf >= sensitive_above:
        return LogSensitivity.LOG_SENSITIVE
    return LogSensitivity.LOG_AGNOSTIC


def classify_stats(translated: SimStats, baseline: SimStats) -> LogSensitivity:
    """Classify from two replays (translated vs conventional baseline)."""
    from repro.core.metrics import seek_amplification

    return classify_saf(seek_amplification(translated, baseline).total)


@dataclass(frozen=True)
class WorkloadCharacter:
    """Trace-level features that predict log sensitivity.

    Attributes:
        write_intensity: Writes per read (high → log-friendly, §V).
        sequential_read_share: Fraction of reads starting exactly where
            the previous read ended (high → scan-heavy → log-sensitive,
            §III).
        overwrite_ratio: Fraction of written sectors that overwrite
            sectors already written in the trace (what fragments the
            logical space).
        mixed_read_share: Fraction of reads that straddle written and
            never-written space — a trace-level proxy for reads that will
            cross physical fragment boundaries under log translation.
        read_fraction: Reads / all ops.
    """

    write_intensity: float
    sequential_read_share: float
    overwrite_ratio: float
    mixed_read_share: float
    read_fraction: float

    def predicted_sensitivity(self) -> LogSensitivity:
        """Heuristic prediction from features alone (no replay).

        Write-dominant workloads benefit from sequential logging
        (§V: back-to-back writes are free); read workloads suffer when
        their reads are ordered scans over overwritten space or straddle
        fragment boundaries.  Validated against actual SAF classes in
        tests/integration.
        """
        if self.write_intensity >= 2.25:
            return LogSensitivity.LOG_FRIENDLY
        scan_pressure = self.sequential_read_share * min(
            1.0, self.overwrite_ratio * 4
        )
        pressure = max(scan_pressure, self.mixed_read_share)
        if self.read_fraction >= 0.4 and pressure >= 0.25:
            return LogSensitivity.LOG_SENSITIVE
        if pressure >= 0.45:
            return LogSensitivity.LOG_SENSITIVE
        return LogSensitivity.LOG_FRIENDLY


def _block_ranges(lba: np.ndarray, length: np.ndarray):
    """Expand requests into the 4 KiB blocks they touch.

    Returns ``(blocks, counts)``: every touched block in request order, and
    the number of blocks each request touches (always >= 1).
    """
    first = lba // 8
    counts = (lba + length - 1) // 8 - first + 1
    offsets = np.cumsum(counts) - counts
    blocks = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        first - offsets, counts
    )
    return blocks, counts


def characterize(trace: Trace) -> WorkloadCharacter:
    """Extract the predictive features from a trace's columns.

    Works on 4 KiB blocks and each block's *first-write* op index: a write
    overwrites every block it touches except on that block's first write,
    and a read is mixed when its range holds both a block first written
    before it and a block not written before it.
    """
    is_read, lba, length = trace.as_arrays()
    n_ops = len(lba)
    writes = ~is_read
    w_blocks, w_counts = _block_ranges(lba[writes], length[writes])
    written_blocks, first_touch = np.unique(w_blocks, return_index=True)
    overwritten = 8 * (len(w_blocks) - len(written_blocks))
    written_total = int(length[writes].sum())

    r_lba, r_length = lba[is_read], length[is_read]
    reads = len(r_lba)
    writes_count = n_ops - reads
    sequential_reads = int(np.count_nonzero(r_lba[1:] == (r_lba + r_length)[:-1]))
    mixed_reads = 0
    if reads:
        # First-write op index per block; a trailing sentinel key catches
        # never-written blocks, which count as written after the trace.
        keys = np.append(written_blocks, np.iinfo(np.int64).max)
        write_at = np.flatnonzero(writes)
        written_at = np.append(np.repeat(write_at, w_counts)[first_touch], n_ops)
        r_blocks, r_counts = _block_ranges(r_lba, r_length)
        slot = np.searchsorted(keys, r_blocks)
        block_written_at = np.where(keys[slot] == r_blocks, written_at[slot], n_ops)
        starts = np.cumsum(r_counts) - r_counts
        read_at = np.flatnonzero(is_read)
        touches_written = np.minimum.reduceat(block_written_at, starts) < read_at
        touches_unwritten = np.maximum.reduceat(block_written_at, starts) > read_at
        mixed_reads = int(np.count_nonzero(touches_written & touches_unwritten))
    return WorkloadCharacter(
        write_intensity=(writes_count / reads) if reads else float("inf"),
        sequential_read_share=(sequential_reads / reads) if reads else 0.0,
        overwrite_ratio=(overwritten / written_total) if written_total else 0.0,
        mixed_read_share=(mixed_reads / reads) if reads else 0.0,
        read_fraction=reads / max(1, reads + writes_count),
    )
