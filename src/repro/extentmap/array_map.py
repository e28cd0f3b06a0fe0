"""Array-backed two-level implementation of
:class:`~repro.extentmap.base.AddressMap`, engineered for the write path.

:class:`~repro.extentmap.extent_map.ExtentMap` pays an O(n) Python-list
memmove per overwrite; on write-heavy traces the map grows to hundreds of
thousands of extents and that insert cost dominates replay (the
``replay_ls_write_heavy`` benchmark).  :class:`ArrayExtentMap` removes it
with an LSM-flavoured split:

* **Base level** — the bulk of the mapping as parallel int64 numpy arrays
  ``(lba, pba, length)`` in canonical form (LBA-sorted, non-overlapping,
  merge-maximal), held in amortized-doubling capacity buffers.  The base
  is immutable between flushes, so lookups are ``searchsorted`` + a short
  walk and batch lookups vectorize completely.
* **Overlay level** — recent overwrites in a small
  :class:`~repro.extentmap.extent_map.ExtentMap` (bounded by
  ``flush_threshold`` extents), where the O(n) insert cost is trivially
  small.  Resolution composes the levels: the overlay wins wherever it
  has a mapping; the base fills the rest; anything unmapped is a hole.

Writes reach the base through one vectorized merge of overwrite rows
applied in order.  Only the base extents the rows overlap, plus the
nearest extent on either side of each row, are rebuilt: those extents
and the rows (on top) are cut into elementary segments at every
boundary, each segment takes the latest row covering it (last writer
wins), the segments are coalesced back to canonical form, and the result
is spliced in among the extents copied through unchanged.  Two callers
use it:

* :meth:`flush`, when the overlay reaches ``flush_threshold`` extents,
  merges the overlay.  Flushing is semantically invisible — it never
  changes what any lookup returns — so results are independent of the
  threshold (property-tested in
  ``tests/extentmap/test_array_map_properties.py`` and pinned
  bit-for-bit against :class:`ExtentMap` by the differential suite).
* :meth:`map_range_batch` merges a whole write run from the replay
  kernels (:mod:`repro.core.batch`), pending overlay first, so
  intra-batch overwrites land exactly as row-by-row ones would
  (``tests/extentmap/test_array_map_batch.py``).  Only batches too small
  to pay for a pass over the base go through the overlay row by row.
  After a merged batch the overlay is empty, so the reads that follow
  resolve entirely against the base.

:meth:`lookup_pieces_batch` resolves a whole run of reads with one
boundary search per array call instead of one per op.

``map_range`` touches numpy only inside a flush: single writes are pure
small-list operations.  The capacity buffers are reused across merges
(``realloc_count`` stays flat once the map's size plateaus — asserted by
the perf tripwire tests).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.extentmap.base import AddressMap, Segment
from repro.extentmap.extent import Extent
from repro.extentmap.extent_map import ExtentMap, validate_extent_rows

#: Overlay extents accumulated before a vectorized merge into the base.
#: Purely a performance knob: results are threshold-independent.  The
#: default balances overlay insert cost (grows with the threshold)
#: against flush frequency (shrinks with it).
DEFAULT_FLUSH_THRESHOLD = 4096

#: Batched lookups whose overlay-intersecting query count reaches this
#: bound flush first (one vectorized merge) instead of scalar-composing
#: each dirty query.  Read-heavy hot-data workloads hit the overlay with
#: nearly every read; below the bound the splice path is cheaper.
_FLUSH_ON_DIRTY_QUERIES = 24

#: :meth:`ArrayExtentMap.map_range_batch` cut-over: batches (with the
#: pending overlay) of at least ``_VECTOR_BATCH_MIN_ROWS`` rows plus one
#: per ``_BASE_EXTENTS_PER_ROW`` base extents resolve with array
#: operations; smaller ones go through the overlay row by row.  A merge
#: costs a fixed part plus a pass over the base, a row through the
#: overlay a Python call; measured break-even on 2 CPUs is ~50 rows on an
#: empty base and ~350 on 60k extents.
_VECTOR_BATCH_MIN_ROWS = 64
_BASE_EXTENTS_PER_ROW = 128

_I8 = np.int64


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated — per-group aranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_I8)
    group_start = np.cumsum(counts) - counts
    return np.arange(total, dtype=_I8) - np.repeat(group_start, counts)


class ArrayExtentMap(AddressMap):
    """Two-level (numpy base + small overlay) sorted extent map.

    Drop-in interchangeable with :class:`ExtentMap`: identical overwrite
    semantics, identical ``lookup``/``lookup_pieces`` tilings and merge
    behaviour, identical :meth:`extent_arrays` exports for any operation
    sequence.  Additionally exposes vectorized batch entry points for the
    replay kernels.

    Args:
        flush_threshold: Overlay extent count that triggers a merge into
            the base level.  Any positive value yields identical results.
    """

    def __init__(self, flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        if flush_threshold <= 0:
            raise ValueError(f"flush_threshold must be > 0, got {flush_threshold}")
        self._flush_threshold = flush_threshold
        self._n = 0
        self._capacity = 0
        self._lba = np.empty(0, dtype=_I8)
        self._pba = np.empty(0, dtype=_I8)
        self._len = np.empty(0, dtype=_I8)
        self._end = np.empty(0, dtype=_I8)  # _lba + _len, cached per flush
        self._gap = np.empty(0, dtype=_I8)  # prefix count of inter-extent gaps
        self._overlay = ExtentMap()
        self._overlay_bounds_cache = None  # (starts, ends) arrays, or None
        #: Completed overlay→base merges (monotone; observability only).
        self.flush_count = 0
        #: Capacity-buffer reallocations (the perf tripwire asserts this
        #: stays flat at steady state — no per-call numpy reallocation).
        self.realloc_count = 0

    def __len__(self) -> int:
        self.flush()
        return self._n

    def __iter__(self) -> Iterator[Extent]:
        """Iterate extents in LBA order (do not mutate while iterating)."""
        self.flush()
        n = self._n
        lba, pba, length = (
            self._lba[:n].tolist(),
            self._pba[:n].tolist(),
            self._len[:n].tolist(),
        )
        return iter([Extent(*row) for row in zip(lba, pba, length)])

    def __repr__(self) -> str:
        return (
            f"ArrayExtentMap(n_base={self._n}, "
            f"n_overlay={len(self._overlay)}, flushes={self.flush_count})"
        )

    # ------------------------------------------------------------------ #
    # AddressMap interface — scalar
    # ------------------------------------------------------------------ #

    def map_range(self, lba: int, pba: int, length: int) -> None:
        # Validation (and its exact messages) lives in the overlay's
        # map_range; steady-state cost is pure small-list work.
        self._overlay.map_range(lba, pba, length)
        self._overlay_bounds_cache = None
        if len(self._overlay) >= self._flush_threshold:
            self.flush()

    def lookup(self, lba: int, length: int) -> List[Segment]:
        # lookup_pieces carries the full tiling; holes resolve to
        # identity placement there, so the merge rules coincide and the
        # Segment list reconstructs exactly (cursor walk).
        segments: List[Segment] = []
        cursor = lba
        for pba, piece_length, hole in self.lookup_pieces(lba, length):
            segments.append(Segment(cursor, None if hole else pba, piece_length))
            cursor += piece_length
        return segments

    def lookup_pieces(self, lba: int, length: int) -> List[Tuple[int, int, bool]]:
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = lba + length
        pieces: List[Tuple[int, int, bool]] = []
        overlay = self._overlay
        if not len(overlay):
            self._base_pieces_scalar(pieces, lba, end)
            return pieces
        # Compose: overlay wins where mapped, base fills the gaps.  The
        # shared _push_piece merge rule makes the composed tiling equal
        # what a single merged map would emit.
        cursor = lba
        idx = overlay._first_overlap_index(lba)
        extents = overlay._extents
        n = len(extents)
        while cursor < end and idx < n:
            ext = extents[idx]
            ext_lba = ext.lba
            if ext_lba >= end:
                break
            if ext_lba > cursor:
                self._base_pieces_scalar(pieces, cursor, min(ext_lba, end))
                cursor = ext_lba
            piece_end = ext_lba + ext.length
            if piece_end > end:
                piece_end = end
            ExtentMap._push_piece(
                pieces, ext.pba + (cursor - ext_lba), piece_end - cursor, False
            )
            cursor = piece_end
            idx += 1
        if cursor < end:
            self._base_pieces_scalar(pieces, cursor, end)
        return pieces

    def mapped_extent_count(self) -> int:
        self.flush()
        return self._n

    def mapped_sector_count(self) -> int:
        self.flush()
        return int(self._len[: self._n].sum())

    # ------------------------------------------------------------------ #
    # Batch entry points (the replay kernels' hot calls)
    # ------------------------------------------------------------------ #

    def map_range_batch(
        self, lba: np.ndarray, pba: np.ndarray, length: np.ndarray
    ) -> None:
        """Apply many overwrites in order.

        Exactly equivalent to calling :meth:`map_range` per row: same
        final mapping, and on an invalid row the rows before it are
        applied and the same ``ValueError`` is raised.

        A batch that, together with the pending overlay, has at least
        ``min(flush_threshold, 64 + n // 128)`` rows over an ``n``-extent
        base is resolved with array operations, in the same merge
        :meth:`flush` uses, with the overlay's extents as the oldest
        rows: every elementary segment between row boundaries takes the
        latest row covering it (last writer wins), so intra-batch
        overwrites land as they would row by row.  That counts as one
        flush.  Smaller batches go through the overlay one row at a
        time, where a short list insert is cheaper than a pass over the
        base.
        """
        lba = np.asarray(lba, dtype=_I8)
        pba = np.asarray(pba, dtype=_I8)
        length = np.asarray(length, dtype=_I8)
        n_rows = len(lba)
        cut_over = min(
            self._flush_threshold,
            _VECTOR_BATCH_MIN_ROWS + self._n // _BASE_EXTENTS_PER_ROW,
        )
        if n_rows + len(self._overlay) < cut_over:
            overlay = self._overlay
            self._overlay_bounds_cache = None
            for row in zip(lba.tolist(), pba.tolist(), length.tolist()):
                overlay.map_range(*row)
                if len(overlay) >= self._flush_threshold:
                    self.flush()
                    overlay = self._overlay
            return
        bad = (length <= 0) | (lba < 0) | (pba < 0)
        stop = int(bad.argmax()) if bad.any() else n_rows
        if stop:
            o_lba, o_pba, o_len = self._overlay.extent_arrays()
            self._merge_rows(
                np.concatenate((o_lba, lba[:stop])),
                np.concatenate((o_pba, pba[:stop])),
                np.concatenate((o_lba + o_len, lba[:stop] + length[:stop])),
            )
        if stop < n_rows:
            # The overlay's map_range validates before mutating: this
            # raises the exact per-row error for the first invalid row.
            self._overlay.map_range(
                int(lba[stop]), int(pba[stop]), int(length[stop])
            )

    def lookup_pieces_batch(
        self, lba: np.ndarray, length: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many reads at once.

        Returns ``(pba, piece_length, is_hole, offsets)`` where query
        ``q``'s pieces are rows ``offsets[q]:offsets[q+1]`` — exactly the
        triples :meth:`lookup_pieces` would return for that query against
        the current map state.  Queries not touching the overlay resolve
        fully vectorized against the base (one ``searchsorted`` per array,
        not per op); a handful of overlay-intersecting queries fall back
        to the scalar compose path and are spliced in, while a batch
        that is mostly dirty triggers a flush (semantically invisible)
        so the whole batch resolves against the merged base instead.
        """
        lba = np.ascontiguousarray(lba, dtype=_I8)
        length = np.ascontiguousarray(length, dtype=_I8)
        n_queries = len(lba)
        if n_queries == 0:
            return (
                np.empty(0, dtype=_I8),
                np.empty(0, dtype=_I8),
                np.empty(0, dtype=bool),
                np.zeros(1, dtype=_I8),
            )
        bad = length <= 0
        if bad.any():
            raise ValueError(
                f"length must be > 0, got {int(length[int(bad.argmax())])}"
            )
        ends = lba + length
        overlay = self._overlay
        hits = None
        if len(overlay):
            o_starts, o_ends = self._overlay_bounds()
            first_after = np.searchsorted(o_ends, lba, side="right")
            hits = (first_after < len(o_starts)) & (
                o_starts[np.minimum(first_after, len(o_starts) - 1)] < ends
            )
            n_dirty = int(np.count_nonzero(hits))
            if n_dirty >= _FLUSH_ON_DIRTY_QUERIES:
                # Scalar-composing this many queries costs more than one
                # vectorized merge of the overlay into the base.
                self.flush()
                hits = None
            elif n_dirty == 0:
                hits = None
        base = self._resolve_base_batch(lba, ends)
        if hits is None:
            return base
        return self._splice_overlay_hits(lba, length, base, hits)

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def extent_arrays(self):
        """The full map as three int64 arrays ``(lba, pba, length)``.

        Canonical form (LBA-sorted, merge-maximal) — identical mappings
        export identical arrays, byte for byte the same as
        :meth:`ExtentMap.extent_arrays` after the same operations.
        """
        self.flush()
        n = self._n
        return self._lba[:n].copy(), self._pba[:n].copy(), self._len[:n].copy()

    @classmethod
    def from_extent_arrays(cls, lba, pba, length) -> "ArrayExtentMap":
        """Rebuild a map from :meth:`extent_arrays` output in O(n).

        Rows must be LBA-sorted, non-overlapping, with positive lengths;
        they are installed directly (coalescing any mergeable neighbours
        back to canonical form, a no-op for exported arrays).
        """
        lba = np.ascontiguousarray(lba, dtype=_I8)
        pba = np.ascontiguousarray(pba, dtype=_I8)
        length = np.ascontiguousarray(length, dtype=_I8)
        validate_extent_rows(lba, length)
        instance = cls()
        if len(lba):
            instance._install_base(*_coalesce(lba, pba, lba + length)[:3])
        return instance

    def flush(self) -> None:
        """Merge the overlay into the base level (semantically invisible).

        Public so callers that are done writing (e.g. before a big batch
        of reads) can pay the merge at a moment of their choosing; never
        required for correctness.
        """
        if not len(self._overlay):
            return
        o_lba, o_pba, o_len = self._overlay.extent_arrays()
        self._merge_rows(o_lba, o_pba, o_lba + o_len)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _merge_rows(
        self, row_lba: np.ndarray, row_pba: np.ndarray, row_end: np.ndarray
    ) -> None:
        """Apply overwrite rows ``[row_lba, row_end) -> row_pba`` in order
        (later rows win) to the base in one vectorized pass, and drop the
        overlay, whose mappings the rows must already carry.  Counts as
        one flush.

        Only the base extents a row overlaps, plus the nearest extent on
        either side of each row, are rebuilt; all others are copied
        through.  That is exact: an extent no row touches keeps its
        mapping, and the only new neighbour it could coalesce with is a
        row right next to it, which makes it a rebuilt extent.
        """
        n = self._n
        base_lba = self._lba[:n]
        base_pba = self._pba[:n]
        base_end = self._end[:n]
        # 1. Pick the extents to rebuild: per row, the index range from
        # its left neighbour to its right neighbour.  Walked in LBA order
        # (sorted keys also search several times faster), each range is
        # clipped to start past every earlier one, so the ranges are
        # disjoint and expand to at most n sorted indices however much
        # the rows overlap.
        by_lba = np.argsort(row_lba)
        lo = np.maximum(
            np.searchsorted(base_end, row_lba[by_lba], side="right") - 1, 0
        )
        hi = np.minimum(
            np.searchsorted(base_lba, row_end[by_lba], side="left") + 1, n
        )
        start = lo.copy()
        np.maximum(start[1:], np.maximum.accumulate(hi[:-1]), out=start[1:])
        span = np.maximum(hi - start, 0)
        ids = np.repeat(start, span) + _ranges(span)
        ext_lba = base_lba[ids]
        # 2. Resolve them with the rows on top (last writer wins).
        new_lba, new_pba, new_end, source = _last_writer_rows(
            np.concatenate((ext_lba, row_lba)),
            np.concatenate((base_pba[ids], row_pba)),
            np.concatenate((base_end[ids], row_end)),
        )
        # 3. Splice the result in among the copied-through extents.  The
        # copied extents left of a new row are those left of its source:
        # for a rebuilt extent, the base extents before it that were not
        # rebuilt; for a row, the same count at its left neighbour.
        row_copied = np.empty(len(lo), dtype=_I8)
        row_copied[by_lba] = lo - np.searchsorted(ids, lo)
        copied_before = np.concatenate(
            (ids - np.arange(len(ids), dtype=_I8), row_copied)
        )
        n_new = len(new_lba)
        at = np.arange(n_new, dtype=_I8) + copied_before[source]
        n_out = n - len(ids) + n_new
        copied = np.ones(n_out, dtype=bool)
        copied[at] = False
        through = np.ones(n, dtype=bool)
        through[ids] = False
        out = []
        for base_col, new_col in (
            (base_lba, new_lba), (base_pba, new_pba), (base_end, new_end)
        ):
            col = np.empty(n_out, dtype=_I8)
            col[copied] = base_col[through]
            col[at] = new_col
            out.append(col)
        self._install_base(*out)
        self._overlay = ExtentMap()
        self._overlay_bounds_cache = None
        self.flush_count += 1

    def _install_base(
        self, lba: np.ndarray, pba: np.ndarray, end: np.ndarray
    ) -> None:
        """Copy canonical rows into the capacity buffers and refresh the
        derived ``end``/gap-prefix caches."""
        n = len(lba)
        if n > self._capacity:
            capacity = max(1024, 1 << max(n - 1, 1).bit_length())
            self._lba = np.empty(capacity, dtype=_I8)
            self._pba = np.empty(capacity, dtype=_I8)
            self._len = np.empty(capacity, dtype=_I8)
            self._end = np.empty(capacity, dtype=_I8)
            self._gap = np.empty(capacity, dtype=_I8)
            self._capacity = capacity
            self.realloc_count += 1
        self._lba[:n] = lba
        self._pba[:n] = pba
        self._end[:n] = end
        np.subtract(end, lba, out=self._len[:n])
        if n:
            self._gap[0] = 0
            np.cumsum(self._end[: n - 1] != self._lba[1:n], out=self._gap[1:n])
        self._n = n

    def _overlay_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._overlay_bounds_cache
        if cached is None:
            starts = np.array(self._overlay._starts, dtype=_I8)
            lengths = np.fromiter(
                (ext.length for ext in self._overlay._extents),
                dtype=_I8,
                count=len(starts),
            )
            cached = self._overlay_bounds_cache = (starts, starts + lengths)
        return cached

    def _base_pieces_scalar(self, pieces: list, start: int, end: int) -> None:
        """Append base-level pieces tiling ``[start, end)`` (merging into
        ``pieces``'s tail per the shared push rule)."""
        push = ExtentMap._push_piece
        n = self._n
        if n == 0:
            push(pieces, start, end - start, True)
            return
        base_lba = self._lba
        idx = int(np.searchsorted(base_lba[:n], start, side="right")) - 1
        if idx < 0 or int(self._end[idx]) <= start:
            idx += 1
        cursor = start
        while cursor < end and idx < n:
            ext_lba = int(base_lba[idx])
            if ext_lba >= end:
                break
            if ext_lba > cursor:
                push(pieces, cursor, ext_lba - cursor, True)
                cursor = ext_lba
            piece_end = int(self._end[idx])
            if piece_end > end:
                piece_end = end
            push(
                pieces,
                int(self._pba[idx]) + (cursor - ext_lba),
                piece_end - cursor,
                False,
            )
            cursor = piece_end
            idx += 1
        if cursor < end:
            push(pieces, cursor, end - cursor, True)

    def _resolve_base_batch(self, lba: np.ndarray, ends: np.ndarray):
        """Vectorized base-only resolution of many queries.

        The base is canonical (merge-maximal), so the emitted pieces are
        already merge-final: adjacent mapped pieces from neighbouring
        extents are never physically contiguous, holes never merge with
        mapped pieces, and two holes are never adjacent.
        """
        n_queries = len(lba)
        offsets = np.empty(n_queries + 1, dtype=_I8)
        offsets[0] = 0
        n = self._n
        if n == 0:
            np.cumsum(np.ones(n_queries, dtype=_I8), out=offsets[1:])
            return lba.copy(), ends - lba, np.ones(n_queries, dtype=bool), offsets
        base_lba = self._lba[:n]
        base_pba = self._pba[:n]
        base_end = self._end[:n]
        gap_prefix = self._gap[:n]

        candidate = np.searchsorted(base_lba, lba, side="right") - 1
        contains = (candidate >= 0) & (base_end[np.maximum(candidate, 0)] > lba)
        first = np.where(contains, candidate, candidate + 1)
        stop = np.searchsorted(base_lba, ends, side="left")
        span = stop - first  # overlapping base extents per query
        has = span > 0
        first_c = np.minimum(first, n - 1)
        last_c = np.minimum(np.maximum(stop - 1, 0), n - 1)
        head_hole = has & (lba < base_lba[first_c])
        tail_start = np.where(has, np.maximum(lba, base_end[last_c]), lba)
        tail_len = ends - tail_start
        tail_hole = tail_len > 0  # covers the span==0 whole-query hole too
        interior = np.where(has, gap_prefix[last_c] - gap_prefix[first_c], 0)
        counts = span + head_hole + tail_hole + interior
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        out_pba = np.empty(total, dtype=_I8)
        out_len = np.empty(total, dtype=_I8)
        out_hole = np.zeros(total, dtype=bool)

        total_span = int(span[has].sum()) if has.any() else 0
        if total_span:
            query_id = np.repeat(np.arange(n_queries, dtype=_I8), span)
            ext = _ranges(span) + np.repeat(first, span)
            piece_lo = np.maximum(lba[query_id], base_lba[ext])
            piece_hi = np.minimum(ends[query_id], base_end[ext])
            position = (
                offsets[:-1][query_id]
                + head_hole[query_id]
                + (ext - first[query_id])
                + (gap_prefix[ext] - gap_prefix[first[query_id]])
            )
            out_pba[position] = base_pba[ext] + (piece_lo - base_lba[ext])
            out_len[position] = piece_hi - piece_lo
            # Interior holes sit immediately before their following extent
            # piece; their identity pba is the previous extent's end.
            inner = (ext > first[query_id]) & (
                base_end[np.maximum(ext - 1, 0)] != base_lba[ext]
            )
            if inner.any():
                hole_start = base_end[ext[inner] - 1]
                hole_pos = position[inner] - 1
                out_pba[hole_pos] = hole_start
                out_len[hole_pos] = base_lba[ext[inner]] - hole_start
                out_hole[hole_pos] = True
        heads = np.flatnonzero(head_hole)
        if heads.size:
            head_pos = offsets[:-1][heads]
            out_pba[head_pos] = lba[heads]
            out_len[head_pos] = base_lba[first[heads]] - lba[heads]
            out_hole[head_pos] = True
        tails = np.flatnonzero(tail_hole)
        if tails.size:
            tail_pos = offsets[1:][tails] - 1
            out_pba[tail_pos] = tail_start[tails]
            out_len[tail_pos] = tail_len[tails]
            out_hole[tail_pos] = True
        return out_pba, out_len, out_hole, offsets

    def _splice_overlay_hits(
        self, lba: np.ndarray, length: np.ndarray, base, hits: np.ndarray
    ):
        """Replace base-only results with scalar-composed ones for the
        queries that intersect the overlay, keeping flat-array form."""
        base_pba, base_len, base_hole, base_off = base
        base_counts = np.diff(base_off)
        hit_ids = np.flatnonzero(hits)
        composed = [
            self.lookup_pieces(int(lba[q]), int(length[q])) for q in hit_ids
        ]
        counts = base_counts.copy()
        counts[hit_ids] = [len(p) for p in composed]
        n_queries = len(lba)
        offsets = np.empty(n_queries + 1, dtype=_I8)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        out_pba = np.empty(total, dtype=_I8)
        out_len = np.empty(total, dtype=_I8)
        out_hole = np.empty(total, dtype=bool)
        keep = ~hits
        if keep.any():
            kept_counts = base_counts[keep]
            src = np.repeat(base_off[:-1][keep], kept_counts) + _ranges(kept_counts)
            dst = np.repeat(offsets[:-1][keep], kept_counts) + _ranges(kept_counts)
            out_pba[dst] = base_pba[src]
            out_len[dst] = base_len[src]
            out_hole[dst] = base_hole[src]
        offset_list = offsets.tolist()
        for q, pieces in zip(hit_ids.tolist(), composed):
            at = offset_list[q]
            stop = at + len(pieces)
            piece_pba, piece_len, piece_hole = zip(*pieces)
            out_pba[at:stop] = piece_pba
            out_len[at:stop] = piece_len
            out_hole[at:stop] = piece_hole
        return out_pba, out_len, out_hole, offsets


def _last_writer_rows(lba: np.ndarray, pba: np.ndarray, end: np.ndarray):
    """Canonical rows for overwrite rows applied in order (later rows
    win): cut at every row boundary, give each elementary segment its
    latest covering row, then coalesce.  Also returns, per output row,
    the input row its first sector came from."""
    points = np.concatenate((lba, end))
    order = np.argsort(points)
    ordered = points[order]
    fresh = np.empty(len(points), dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    cuts = ordered[fresh]
    slot = np.empty(len(points), dtype=_I8)  # each point's index in cuts
    slot[order] = np.cumsum(fresh) - 1
    n_rows = len(lba)
    owner = _latest_cover(slot[:n_rows], slot[n_rows:], len(cuts) - 1)
    segment = np.flatnonzero(owner >= 0)
    row = owner[segment]
    seg_lba = cuts[segment]
    *merged, starts = _coalesce(
        seg_lba, pba[row] + (seg_lba - lba[row]), cuts[segment + 1]
    )
    return (*merged, row[starts])


def _latest_cover(first: np.ndarray, stop: np.ndarray, n_slots: int) -> np.ndarray:
    """Per slot ``s < n_slots``: the largest row ``i`` with
    ``first[i] <= s < stop[i]``, or -1 where no row covers it.

    A bottom-up segment tree over the slots: each row's range splits into
    O(log n_slots) canonical nodes (one vectorized step per tree level),
    and a top-down pass carries every node's maximum to its leaves.  Work
    is O(rows · log n_slots + n_slots) however much the rows overlap —
    never the rows × covered-slots expansion.
    """
    size = 1 << max(n_slots - 1, 0).bit_length()
    tree = np.full(2 * size, -1, dtype=_I8)
    row = np.arange(len(first), dtype=_I8)
    lo = first + size
    hi = stop + size
    while len(row):
        odd = (lo & 1).astype(bool)
        np.maximum.at(tree, lo[odd], row[odd])
        lo += odd
        odd = (hi & 1).astype(bool)
        hi -= odd
        np.maximum.at(tree, hi[odd], row[odd])
        lo >>= 1
        hi >>= 1
        live = lo < hi
        row, lo, hi = row[live], lo[live], hi[live]
    width = 1
    while width < size:
        children = tree[2 * width : 4 * width]
        np.maximum(children, np.repeat(tree[width : 2 * width], 2), out=children)
        width *= 2
    return tree[size : size + n_slots]


def _coalesce(lba: np.ndarray, pba: np.ndarray, end: np.ndarray):
    """Merge adjacent rows that are both logically and physically
    contiguous (canonical merge-maximal form).  Inputs sorted, disjoint.
    Also returns the input index each merged row starts at."""
    n = len(lba)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.logical_or(
        lba[1:] != end[:-1],
        pba[1:] != pba[:-1] + (end[:-1] - lba[:-1]),
        out=breaks[1:],
    )
    starts = np.flatnonzero(breaks)
    run_end = end[np.append(starts[1:], n) - 1]
    return lba[starts], pba[starts], run_end, starts
