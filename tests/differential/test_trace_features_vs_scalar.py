"""Differential oracle: columnar trace features vs. the per-request loops.

:func:`~repro.trace.stats.compute_stats` (Table I) and
:func:`~repro.analysis.classify.characterize` (taxonomy) read a trace's
column arrays.  The plain per-request loops they replaced are kept below
as oracles; every field must agree exactly, including the Python
``int``/``float`` types that end up in exhibit JSON.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.classify import WorkloadCharacter, characterize
from repro.trace.columnar import ColumnarTrace, TraceColumns
from repro.trace.record import IORequest, OpType
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload


def stats_oracle(trace: Trace) -> TraceStats:
    read_count = 0
    write_count = 0
    read_sectors = 0
    written_sectors = 0
    first_ts = None
    last_ts = 0.0
    for request in trace:
        if first_ts is None:
            first_ts = request.timestamp
        last_ts = request.timestamp
        if request.is_read:
            read_count += 1
            read_sectors += request.length
        else:
            write_count += 1
            written_sectors += request.length
    duration = (last_ts - first_ts) if first_ts is not None else 0.0
    return TraceStats(
        name=trace.name,
        read_count=read_count,
        write_count=write_count,
        read_sectors=read_sectors,
        written_sectors=written_sectors,
        max_end=max((r.end for r in trace), default=0),
        duration_s=duration,
    )


def characterize_oracle(trace: Trace) -> WorkloadCharacter:
    reads = 0
    writes = 0
    sequential_reads = 0
    mixed_reads = 0
    overwritten = 0
    written_total = 0
    last_read_end = None
    written = set()  # 4 KiB blocks written so far
    for request in trace:
        first = request.lba // 8
        last = (request.end - 1) // 8
        if request.is_read:
            reads += 1
            if last_read_end is not None and request.lba == last_read_end:
                sequential_reads += 1
            last_read_end = request.end
            touches_written = any(
                block in written for block in range(first, last + 1)
            )
            touches_unwritten = any(
                block not in written for block in range(first, last + 1)
            )
            if touches_written and touches_unwritten:
                mixed_reads += 1
        else:
            writes += 1
            written_total += request.length
            for block in range(first, last + 1):
                if block in written:
                    overwritten += 8
                else:
                    written.add(block)
    return WorkloadCharacter(
        write_intensity=(writes / reads) if reads else float("inf"),
        sequential_read_share=(sequential_reads / reads) if reads else 0.0,
        overwrite_ratio=(overwritten / written_total) if written_total else 0.0,
        mixed_read_share=(mixed_reads / reads) if reads else 0.0,
        read_fraction=reads / max(1, reads + writes),
    )


def typed(record) -> list:
    """Field values paired with their exact types (``int`` vs ``np.int64``)."""
    return [(type(v), v) for v in dataclasses.astuple(record)]


def assert_features_match(trace: Trace) -> None:
    expected_stats = stats_oracle(trace)
    expected_character = characterize_oracle(trace)
    columnar = ColumnarTrace(TraceColumns.from_trace(trace), name=trace.name)
    for candidate in (trace, columnar):
        assert typed(compute_stats(candidate)) == typed(expected_stats)
        assert typed(characterize(candidate)) == typed(expected_character)
    assert not columnar.materialized


def build(rows, name="t") -> Trace:
    return Trace(
        [
            IORequest(ts, OpType.READ if is_read else OpType.WRITE, lba, length)
            for ts, is_read, lba, length in rows
        ],
        name=name,
    )


def rows_strategy(reads=st.booleans(), max_lba=400, max_length=48, max_size=60):
    """Ops over a small LBA range (unaligned), so blocks are rewritten and
    reads straddle written and never-written blocks."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            reads,
            st.integers(min_value=0, max_value=max_lba),
            st.integers(min_value=1, max_value=max_length),
        ),
        max_size=max_size,
    )


@given(rows=rows_strategy())
@settings(max_examples=300, deadline=None)
def test_mixed_traces(rows):
    assert_features_match(build(rows))


@given(rows=rows_strategy(reads=st.just(True)))
@settings(max_examples=60, deadline=None)
def test_reads_only(rows):
    assert_features_match(build(rows))


@given(rows=rows_strategy(reads=st.just(False)))
@settings(max_examples=60, deadline=None)
def test_writes_only(rows):
    assert_features_match(build(rows))


@given(rows=rows_strategy(max_lba=24, max_length=20))
@settings(max_examples=200, deadline=None)
def test_dense_overwrites_and_straddles(rows):
    assert_features_match(build(rows))


@given(
    rows=rows_strategy(max_lba=2_000_000, max_length=4096, max_size=30)
)
@settings(max_examples=60, deadline=None)
def test_sparse_large_requests(rows):
    assert_features_match(build(rows))


def test_empty_trace():
    assert_features_match(Trace([], name="empty"))


@pytest.mark.parametrize(
    "rows",
    [
        # read before any write: not mixed, even though it touches a
        # block written later
        [(0.0, True, 0, 16), (1.0, False, 0, 8)],
        # read straddling a written and an unwritten block
        [(0.0, False, 0, 8), (1.0, True, 4, 8)],
        # fully written range: not mixed
        [(0.0, False, 0, 16), (1.0, True, 3, 10)],
        # the same block rewritten three times
        [(0.0, False, 8, 8), (1.0, False, 9, 2), (2.0, False, 8, 8)],
        # unaligned write touching two blocks, then sequential reads
        [(0.0, False, 6, 4), (1.0, True, 0, 6), (2.0, True, 6, 10)],
    ],
)
def test_hand_built_cases(rows):
    assert_features_match(build(rows))


@pytest.mark.parametrize("name", ["hm_1", "usr_0", "w84", "w106"])
def test_synthesized_workloads(name):
    assert_features_match(synthesize_workload(name, seed=7, scale=0.05))
