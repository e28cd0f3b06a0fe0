"""The workload-trace memo: one synthesis per trace per run, bounded in bytes."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments import common
from repro.experiments.runner import run_exhibits
from repro.experiments.sweep import reset_sweep_engines
from repro.workloads import TABLE1
from repro.workloads.generator import WorkloadGenerator

EXHIBITS = ["table1", "fig2", "fig11", "ablation_combined", "taxonomy"]


@pytest.fixture(autouse=True)
def _clean_state():
    common.set_fast_replay(False)
    common.clear_trace_cache()
    reset_sweep_engines()
    yield
    common.set_fast_replay(False)
    common.clear_trace_cache()
    reset_sweep_engines()


@pytest.fixture
def generate_calls(monkeypatch):
    calls: Counter = Counter()
    original = WorkloadGenerator.generate

    def counting(self, seed=42, scale=1.0):
        calls[(self.spec.name, seed, scale)] += 1
        return original(self, seed=seed, scale=scale)

    monkeypatch.setattr(WorkloadGenerator, "generate", counting)
    return calls


def test_fast_exhibit_run_synthesizes_each_trace_once(tmp_path, generate_calls):
    outcomes = run_exhibits(
        EXHIBITS, seed=42, scale=0.02, out_dir=str(tmp_path),
        fast=True, jobs=1, echo=lambda _line: None,
    )
    assert [o.ok for o in outcomes] == [True] * len(EXHIBITS)
    assert set(generate_calls) == {(name, 42, 0.02) for name in TABLE1}
    assert set(generate_calls.values()) == {1}
    # The fast path reads columns only: no cached trace was materialized.
    cached = list(common._trace_cache.values())
    assert len(cached) == len(TABLE1)
    assert not any(trace.materialized for trace in cached)


def test_materialized_requests_count_against_the_budget(monkeypatch, generate_calls):
    names = ["hm_1", "usr_0", "w84"]
    columns = sum(
        common.workload_trace(name, 1, 0.02).columns.nbytes for name in names
    )
    common.clear_trace_cache()
    monkeypatch.setattr(common, "_TRACE_CACHE_BYTES", columns)
    first = common.workload_trace(names[0], 1, 0.02)
    common.workload_trace(names[1], 1, 0.02)
    list(first)  # a reference-path consumer materializes it
    assert first.materialized
    common.workload_trace(names[2], 1, 0.02)
    # Columns alone fit; the materialized list pushed the LRU entry out.
    assert common.trace_cache_size() == 2
    assert common.workload_trace(names[0], 1, 0.02) is not first
    assert generate_calls[(names[0], 1, 0.02)] == 3


def test_columns_of_a_table1_walk_stay_resident(generate_calls):
    for _ in range(2):
        for name in TABLE1:
            common.workload_trace(name, 5, 0.02)
    assert common.trace_cache_size() == len(TABLE1)
    assert set(generate_calls.values()) == {1}
