"""Synthetic traces are pinned byte for byte, and keep IORequest's contract.

The generator builds traces as columns; these tests pin what every exhibit
sees of them — the content key, the timestamp column and the Table I
statistics of all 21 workloads at two seeds and two scales — to the digest
of the per-request generator that preceded it, and check that an invalid
op from a pattern raises exactly what constructing the ``IORequest`` would.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.trace.columnar import ColumnarTrace
from repro.trace.record import IORequest, OpType
from repro.trace.stats import compute_stats
from repro.workloads import TABLE1, synthesize_workload
from repro.workloads.generator import generate_workload
from repro.workloads.patterns import RandomAccessPattern
from repro.workloads.spec import ReadMix, WorkloadSpec, WriteMix

#: SHA-256 over ``content_key()``, ``timestamps()`` bytes and
#: ``repr(astuple(compute_stats()))`` for every Table I workload, seeds
#: (42, 7), scales (0.25, 1.0), in that nesting order.
GOLDEN = "e02b589d09290de73001fe589c7fa501acf858b9c37ec9df4099ee8435cf52b4"


def test_table1_synthesis_golden_digest():
    digest = hashlib.sha256()
    for name in TABLE1:
        for seed in (42, 7):
            for scale in (0.25, 1.0):
                trace = synthesize_workload(name, seed=seed, scale=scale)
                assert isinstance(trace, ColumnarTrace)
                digest.update(trace.content_key().encode())
                digest.update(trace.timestamps().tobytes())
                # repr keeps int vs np.int64 apart, so result types are pinned too.
                stats = dataclasses.astuple(compute_stats(trace))
                digest.update(repr(stats).encode())
                assert not trace.materialized
    assert digest.hexdigest() == GOLDEN


def _random_writes_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="invalid-test",
        family="msr",
        total_ops=40,
        read_fraction=0.0,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=64,
        hot_mib=8,
        write_mix=WriteMix(random=1.0, hot_overwrite=0.0, sequential=0.0, misordered=0.0),
        read_mix=ReadMix(scan=0.25, random=0.25, hot=0.25, replay=0.25),
        phases=1,
    )


@pytest.mark.parametrize(
    "bad_span",
    [
        (-8, 8),
        (0, 0),
        (0, -8),
        (8.0, 8),
        (8, 8.0),
        (True, 8),
        (8, False),
        (np.int64(8), 8),
    ],
)
def test_invalid_pattern_output_raises_like_iorequest(monkeypatch, bad_span):
    with pytest.raises(Exception) as expected:
        IORequest(0.0, OpType.WRITE, *bad_span)

    original = RandomAccessPattern.emit
    emitted = []

    def emit(self):
        emitted.append(None)
        # A few clean ops first: the error must name the first bad op.
        return original(self) if len(emitted) < 5 else bad_span

    monkeypatch.setattr(RandomAccessPattern, "emit", emit)
    with pytest.raises(expected.type) as raised:
        generate_workload(_random_writes_spec(), seed=1)
    assert str(raised.value) == str(expected.value)

