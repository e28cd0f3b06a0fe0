"""Differential property tests for ``ArrayExtentMap.map_range_batch``.

A batch must land exactly as the same rows applied one by one through
``ExtentMap.map_range`` (the oracle): on top of any pre-existing base and
pending overlay, at any flush threshold, and whichever path the batch
takes (row by row through the overlay, or resolved with array
operations).  The batches here overlap heavily on purpose: the same LBA
rewritten, nested and straddling rows, physically contiguous neighbours
that must coalesce, and one long row laid over many short ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.extent_map import ExtentMap

ADDRESS_SPACE = 96

#: From "every batch merges" to "only long batches do".
thresholds = st.sampled_from([1, 2, 5, 64, 4096])

#: Rows placed at ``pba = lba + offset`` with one of two offsets: any two
#: logically adjacent ones with the same offset are physically contiguous
#: too, so batch rows often coalesce with the base extents next to them.
_placed_row = st.builds(
    lambda lba, offset, length: (lba, lba + offset, length),
    st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
    st.sampled_from([0, 5_000]),
    st.integers(min_value=1, max_value=16),
)

prior_writes = st.lists(
    st.one_of(
        _placed_row,
        st.tuples(
            st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),  # lba
            st.integers(min_value=0, max_value=20_000),             # pba
            st.integers(min_value=1, max_value=16),                 # length
        ),
    ),
    max_size=40,
)


@st.composite
def _rewrite_same_lba(draw):
    lba = draw(st.integers(min_value=0, max_value=ADDRESS_SPACE - 1))
    return [
        (lba, draw(st.integers(0, 50_000)), draw(st.integers(1, 12)))
        for _ in range(draw(st.integers(2, 5)))
    ]


@st.composite
def _nested_and_straddling(draw):
    lba = draw(st.integers(min_value=0, max_value=ADDRESS_SPACE - 1))
    length = draw(st.integers(min_value=4, max_value=32))
    inner = draw(st.integers(min_value=0, max_value=length - 2))
    return [
        (lba, draw(st.integers(0, 50_000)), length),
        (lba + inner, draw(st.integers(0, 50_000)), 1 + (length - inner) // 2),
        (lba + length - 1, draw(st.integers(0, 50_000)), draw(st.integers(2, 9))),
        (max(lba - 3, 0), draw(st.integers(0, 50_000)), 5),
    ]


@st.composite
def _contiguous_run(draw):
    """Logically and physically contiguous rows, in either order."""
    lba = draw(st.integers(min_value=0, max_value=ADDRESS_SPACE - 1))
    pba = draw(st.integers(min_value=0, max_value=50_000))
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        length = draw(st.integers(1, 6))
        rows.append((lba, pba, length))
        lba += length
        pba += length
    return rows[::-1] if draw(st.booleans()) else rows


@st.composite
def _long_over_short(draw):
    lba = draw(st.integers(min_value=0, max_value=ADDRESS_SPACE - 1))
    shorts = [
        (lba + 2 * i, draw(st.integers(0, 50_000)), 1)
        for i in range(draw(st.integers(2, 8)))
    ]
    long_row = (max(lba - 1, 0), draw(st.integers(0, 50_000)), 2 * len(shorts) + 2)
    return shorts + [long_row] if draw(st.booleans()) else [long_row] + shorts


_single_row = st.tuples(
    st.integers(0, ADDRESS_SPACE - 1), st.integers(0, 50_000), st.integers(1, 24)
).map(lambda row: [row])

overlapping_batch = st.lists(
    st.one_of(
        _single_row,
        _placed_row.map(lambda row: [row]),
        _rewrite_same_lba(),
        _nested_and_straddling(),
        _contiguous_run(),
        _long_over_short(),
    ),
    min_size=1,
    max_size=24,
).map(lambda groups: [row for group in groups for row in group])

@st.composite
def prior_and_batch(draw):
    """Prior writes and a batch that also extends some prior rows on the
    left or right, logically and physically — rows that must coalesce
    with base extents the batch does not otherwise touch."""
    prior = draw(prior_writes)
    batch = draw(overlapping_batch)
    extended = draw(st.lists(st.sampled_from(prior), max_size=3)) if prior else []
    for lba, pba, length in extended:
        grow = draw(st.integers(min_value=1, max_value=6))
        if draw(st.booleans()):
            row = (lba + length, pba + length, grow)
        elif lba >= grow and pba >= grow:
            row = (lba - grow, pba - grow, grow)
        else:
            continue
        batch.insert(draw(st.integers(min_value=0, max_value=len(batch))), row)
    return prior, batch


queries = st.lists(
    st.tuples(st.integers(0, ADDRESS_SPACE + 24), st.integers(1, 48)),
    min_size=1,
    max_size=12,
)


def _columns(rows):
    return tuple(np.array([r[i] for r in rows], dtype=np.int64) for i in range(3))


def _prepared(prior, threshold, flush_every):
    """The map and its oracle after ``prior``, with a pending overlay."""
    amap = ArrayExtentMap(flush_threshold=threshold)
    oracle = ExtentMap()
    for i, row in enumerate(prior):
        amap.map_range(*row)
        oracle.map_range(*row)
        if flush_every and i % flush_every == flush_every - 1:
            amap.flush()
    return amap, oracle


def _assert_same(amap, oracle, probe):
    lba = np.array([q[0] for q in probe], dtype=np.int64)
    length = np.array([q[1] for q in probe], dtype=np.int64)
    pba, piece_len, hole, offsets = amap.lookup_pieces_batch(lba, length)
    for i, (q_lba, q_len) in enumerate(probe):
        window = slice(offsets[i], offsets[i + 1])
        got = list(
            zip(pba[window].tolist(), piece_len[window].tolist(), hole[window].tolist())
        )
        assert got == oracle.lookup_pieces(q_lba, q_len), (q_lba, q_len)
    for ours, theirs in zip(amap.extent_arrays(), oracle.extent_arrays()):
        assert np.array_equal(ours, theirs)


class TestBatchMatchesPerRowReplay:
    @given(
        scenario=prior_and_batch(),
        probe=queries,
        threshold=thresholds,
        flush_every=st.sampled_from([0, 3, 7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_overlapping_batch(self, scenario, probe, threshold, flush_every):
        prior, batch = scenario
        amap, oracle = _prepared(prior, threshold, flush_every)
        amap.map_range_batch(*_columns(batch))
        for row in batch:
            oracle.map_range(*row)
        _assert_same(amap, oracle, probe)

    @given(
        prior=prior_writes,
        batches=st.lists(overlapping_batch, min_size=2, max_size=4),
        probe=queries,
        threshold=thresholds,
    )
    @settings(max_examples=100, deadline=None)
    def test_consecutive_batches(self, prior, batches, probe, threshold):
        amap, oracle = _prepared(prior, threshold, 0)
        for batch in batches:
            amap.map_range_batch(*_columns(batch))
            for row in batch:
                oracle.map_range(*row)
        _assert_same(amap, oracle, probe)

    @given(
        prior=prior_writes,
        batch=overlapping_batch,
        bad_at=st.integers(min_value=0, max_value=200),
        bad_row=st.sampled_from([(5, 100, 0), (5, 100, -2), (-1, 100, 4), (5, -7, 4)]),
        threshold=thresholds,
    )
    @settings(max_examples=150, deadline=None)
    def test_invalid_row_applies_prefix_and_raises(
        self, prior, batch, bad_at, bad_row, threshold
    ):
        bad_at = min(bad_at, len(batch))
        rows = batch[:bad_at] + [bad_row] + batch[bad_at:]
        amap, oracle = _prepared(prior, threshold, 0)
        for row in batch[:bad_at]:
            oracle.map_range(*row)
        with pytest.raises(ValueError) as expected:
            ExtentMap().map_range(*bad_row)
        with pytest.raises(ValueError) as raised:
            amap.map_range_batch(*_columns(rows))
        assert str(raised.value) == str(expected.value)
        _assert_same(amap, oracle, [(0, ADDRESS_SPACE + 40)])


def test_long_batch_over_fragmented_base():
    """A batch far larger than the flush threshold, over a base with
    thousands of extents, rewriting one region many times."""
    rng = np.random.default_rng(11)
    amap = ArrayExtentMap(flush_threshold=256)
    oracle = ExtentMap()
    for i, lba in enumerate(rng.integers(0, 30_000, size=6_000).tolist()):
        amap.map_range(lba, 1_000_000 + 8 * i, 4)
        oracle.map_range(lba, 1_000_000 + 8 * i, 4)
    # Scattered short rows, 500 rewrites of one region, then one row
    # over part of that region again.
    lba = np.concatenate(
        (rng.integers(0, 30_000, size=3_000), np.full(500, 1_000), [0])
    ).astype(np.int64)
    length = np.concatenate(
        (rng.integers(1, 64, size=3_000), rng.integers(1, 4_000, size=500), [2_000])
    ).astype(np.int64)
    pba = 9_000_000 + np.cumsum(length) - length
    amap.map_range_batch(lba, pba, length)
    for row in zip(lba.tolist(), pba.tolist(), length.tolist()):
        oracle.map_range(*row)
    _assert_same(amap, oracle, [(0, 40_000), (999, 5_000), (17, 3)])
