"""Mergeable-result combinators for sharded analysis (map-reduce views).

Each combinator takes the per-shard value of one derived view and
reconstructs the value a single :class:`~repro.core.context.AnalysisContext`
over the merged dataset would compute — **bitwise** identical, pinned by
the shard-merge parity tests (``tests/core/test_shard_merge.py``) against
the serial reference fold in ``tests/core/merge_reference.py``.

The trivially mergeable views are concatenations (durations, per-family
starts, dispersion series), which the merge writes into
:class:`GrowBuffer` s, or re-reductions (marginal counts, weekly
(week, bot) pair tables, daily histograms), which fold through
:class:`ShardPartial`.  Two families of views need care at shard
boundaries:

* **Intervals** — consecutive-gap arrays gain one extra gap per shard
  boundary (last start of the previous non-empty shard to the first
  start of the next one); see :func:`interval_pieces`.
* **Collaboration / chain scans** — a run of attacks on one target can
  straddle a boundary.  :func:`stitch_scan_events` finds the runs that
  cross a boundary and regenerates only those from the merged columns;
  every other event passes through.

All index-valued outputs are **global** attack indices: shard ``k``'s
local index ``i`` maps to ``bases[k] + i`` where ``bases`` are the
cumulative shard sizes.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..monitor.schemas import Protocol
from ..obs import registry as _obs_registry
from .collaboration import (
    DURATION_WINDOW_SECONDS,
    START_WINDOW_SECONDS,
    CollabEvent,
    _detect_collaborations,
)
from .consecutive import CHAIN_MARGIN_SECONDS, AttackChain
from .overview import DailyDistribution

if TYPE_CHECKING:  # pragma: no cover - types only
    from .dataset import AttackDataset

__all__ = [
    "merge_grouped_indices",
    "merge_counts",
    "merge_weekly_pairs",
    "finish_daily_distribution",
    "merge_protocol_breakdown",
    "merge_protocol_popularity",
    "rebase_scan_events",
    "scan_order",
    "stitch_scan_events",
    "seam_stitch_scan_events",
    "ShardPartial",
    "make_shard_partial",
    "combine_partials",
    "sketch_summaries",
]


# -- plain concatenations --------------------------------------------------


class GrowBuffer:
    """A 1-D concatenation with reserved tail capacity.

    Concat-shaped merged views (durations, per-family starts, CSR flats,
    dispersion series, ...) are suffix-extended by an append: the merged
    array after one more shard is the old array plus the new shard's
    rows.  Rebuilding them with ``np.concatenate`` re-copies every row
    on every re-merge.  A ``GrowBuffer`` copies the pieces once into a
    buffer with ``reserve`` fractional headroom; later appends write
    only the new pieces into the reserved tail, and the previously
    returned view stays valid because it covers an immutable prefix of
    the same buffer.

    ``extend`` returns ``None`` once the headroom is exhausted — callers
    rebuild a fresh ``GrowBuffer``, which restores the reserve.
    """

    def __init__(self, pieces: Sequence[np.ndarray], *, reserve: float = 0.5):
        n = sum(int(p.size) for p in pieces)
        self._buf = np.empty(n + max(int(n * reserve), 16), dtype=pieces[0].dtype)
        self.n = 0
        self.view = self._buf[:0]
        self.extend(pieces)

    def extend(self, pieces: Sequence[np.ndarray]) -> np.ndarray | None:
        """Append ``pieces`` in place; ``None`` if headroom is exhausted."""
        add = sum(int(p.size) for p in pieces)
        if self.n + add > self._buf.size:
            return None
        for p in pieces:
            self._buf[self.n : self.n + p.size] = p
            self.n += int(p.size)
        self.view = self._buf[: self.n]
        return self.view


def merge_grouped_indices(
    parts: Sequence[dict[int, np.ndarray]], bases: Sequence[int]
) -> dict[int, np.ndarray]:
    """Merge per-shard grouping dicts (column value -> attack indices).

    Per-shard groups hold local indices in chronological order; rebasing
    and concatenating in shard order keeps each group chronological.
    The output dict is built in ascending key order — the same insertion
    order the unsharded ``np.split`` grouping pass produces.
    """
    keys = sorted({k for part in parts for k in part})
    out: dict[int, np.ndarray] = {}
    for key in keys:
        pieces = [
            part[key] + np.int64(base)
            for part, base in zip(parts, bases)
            if key in part
        ]
        out[key] = np.concatenate(pieces)
    return out


# -- re-reductions ---------------------------------------------------------


def merge_counts(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``np.unique(..., return_counts=True)`` marginals."""
    uniq = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if uniq.size == 0:
        return uniq, counts
    order = np.argsort(uniq, kind="stable")
    u_sorted = uniq[order]
    first = np.empty(u_sorted.size, dtype=bool)
    first[0] = True
    first[1:] = u_sorted[1:] != u_sorted[:-1]
    starts = np.flatnonzero(first)
    return u_sorted[starts], np.add.reduceat(counts[order], starts)


def interval_pieces(
    starts_parts: Sequence[np.ndarray], diff_parts: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """The concat pieces of the merged gap array.

    ``np.diff`` is an elementwise subtraction, so the global gap array is
    exactly the per-part gap arrays interleaved with one boundary gap
    (first start of a non-empty part minus the last start of the
    previous non-empty one) per internal boundary.

    Passing an empty diff array for the leading part yields only the
    pieces *after* it — one boundary gap per seam plus the later parts'
    gap arrays — which is what the merge appends after the leading
    part's own gap array.
    """
    pieces: list[np.ndarray] = []
    prev_last: float | None = None
    for starts, diffs in zip(starts_parts, diff_parts):
        if starts.size == 0:
            continue
        if prev_last is not None:
            pieces.append(np.array([starts[0] - prev_last], dtype=np.float64))
        if diffs.size:
            pieces.append(diffs)
        prev_last = float(starts[-1])
    return pieces


def _seam_union(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]
) -> tuple[tuple[np.ndarray, ...], int]:
    """Sorted-unique union of two sorted-unique row tables.

    Each table is a tuple of aligned columns sorted lexicographically,
    leading column first.  Rows of ``a`` keyed before ``b``'s first key
    and rows of ``b`` keyed after ``a``'s last key cannot collide with
    the other side; they pass through by concatenation, and only the
    overlap in between is lexsorted and de-duplicated.  Returns the
    union and the number of overlap rows sorted.  Exact for any two
    tables: disjoint ones in order concatenate, reordered ones sort in
    full.
    """
    ka, kb = a[0], b[0]
    ia, ib = ka.size, 0
    if ka.size and kb.size:
        ia = int(np.searchsorted(ka, kb[0], side="left"))
        ib = int(np.searchsorted(kb, ka[-1], side="right"))
    n = ka.size - ia + ib
    if n == 0:
        return tuple(np.concatenate((x, y)) for x, y in zip(a, b)), 0
    mid = [np.concatenate((x[ia:], y[:ib])) for x, y in zip(a, b)]
    order = np.lexsort(mid[::-1])
    mid = [c[order] for c in mid]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = False
    for c in mid:
        first[1:] |= c[1:] != c[:-1]
    return (
        tuple(
            np.concatenate((x[:ia], c[first], y[ib:]))
            for x, c, y in zip(a, mid, b)
        ),
        n,
    )


def merge_weekly_pairs(
    parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union per-shard ``(weeks_u, u_week, u_bot)`` weekly-shift tables.

    A (week, bot) pair may appear in several shards (the bot attacked in
    that week on both sides of a boundary).  The parts are folded left
    to right with a seam-only union: time shards share at most their
    boundary week, so only that week's pairs are lexsorted and
    de-duplicated and every other row passes through by concatenation.
    ``weeks_u`` folds the same way.  The result is the global
    sorted-unique table for parts in any order (reordered parts just
    sort more rows).  Ticks ``shard.merge.seam_pairs`` by the number of
    (week, bot) rows sorted.
    """
    weeks, pairs = (parts[0][0],), tuple(parts[0][1:])
    sorted_rows = 0
    for part in parts[1:]:
        weeks, _ = _seam_union(weeks, (part[0],))
        pairs, n = _seam_union(pairs, tuple(part[1:]))
        sorted_rows += n
    _obs_registry().counter("shard.merge.seam_pairs").inc(sorted_rows)
    return weeks[0], pairs[0], pairs[1]


def finish_daily_distribution(
    counts: np.ndarray,
    ds: "AttackDataset",
    family: str | None,
    days: np.ndarray | None = None,
) -> DailyDistribution:
    """Build a :class:`DailyDistribution` from already-summed day counts.

    ``days`` optionally supplies the per-attack day index column (the
    same elementwise expression computed below) so re-merges can keep it
    in a growable buffer instead of recomputing it over every row.
    """
    max_day = int(np.argmax(counts))
    if family is not None:
        top_family = family if counts[max_day] > 0 else ""
    else:
        if days is None:
            days = ((ds.start - ds.window.start) // 86400).astype(np.int64)
        on_max = days == max_day
        if on_max.any():
            fams, fam_counts = np.unique(ds.family_idx[on_max], return_counts=True)
            top_family = ds.family_name(int(fams[np.argmax(fam_counts)]))
        else:
            top_family = ""
    return DailyDistribution(
        counts=counts,
        mean_per_day=float(counts[: ds.window.n_days].mean()),
        max_per_day=int(counts[max_day]),
        max_day_index=max_day,
        max_day_label=ds.window.day_label(max_day),
        max_day_top_family=top_family,
    )


def merge_protocol_breakdown(
    parts: Sequence[list[tuple[Protocol, str, int]]]
) -> list[tuple[Protocol, str, int]]:
    """Sum per-shard Table II cells, protocol-major / family-sorted."""
    totals: dict[tuple[int, str], int] = {}
    for rows in parts:
        for proto, fam, count in rows:
            key = (int(proto), fam)
            totals[key] = totals.get(key, 0) + int(count)
    out: list[tuple[Protocol, str, int]] = []
    for proto in Protocol:
        cells = sorted(
            (fam, count) for (p, fam), count in totals.items() if p == int(proto)
        )
        out.extend((proto, fam, count) for fam, count in cells)
    return out


def merge_protocol_popularity(
    parts: Sequence[dict[Protocol, int]]
) -> dict[Protocol, int]:
    """Sum per-shard Fig 1 protocol totals (all protocols, zeros kept)."""
    return {proto: sum(int(p[proto]) for p in parts) for proto in Protocol}


# -- boundary-stitched scans -----------------------------------------------
#
# Shards are contiguous time slices, so a shard's per-target rows are a
# contiguous run of that target's global rows, local scan events are
# consistent fragments of global ones, and any fragment belonging to a
# boundary-crossing run is dropped and regenerated from the merged
# columns.  Rebasing happens once per shard build
# (:func:`rebase_scan_events`); the merge regenerates only the runs that
# actually cross a boundary.  The conservative suspect-target rescan of
# ``tests/core/merge_reference.py`` is the oracle these are pinned to.


class _AttackSlice:
    """Column view of the merged dataset restricted to a row subset.

    Quacks like an :class:`AttackDataset` for exactly the columns the
    collaboration/chain kernels touch.  Rows are given in ascending
    global order, so the kernels' stable ``lexsort`` preserves the same
    tie order the global scan would use.
    """

    def __init__(self, ds, rows: np.ndarray) -> None:
        self._ds = ds
        self.n_attacks = int(rows.size)
        self.start = ds.start[rows]
        self.end = ds.end[rows]
        self.target_idx = ds.target_idx[rows]
        self.botnet_id = ds.botnet_id[rows]
        self.family_idx = ds.family_idx[rows]

    def family_name(self, family_id: int) -> str:
        return self._ds.family_name(family_id)


def rebase_scan_events(events: Sequence, base: int) -> list:
    """Shift scan-event attack indices into the global index space."""
    base = int(base)
    if base == 0 or not events:
        return list(events)
    out = []
    if isinstance(events[0], CollabEvent):
        for e in events:
            out.append(
                CollabEvent(
                    attack_indices=tuple(i + base for i in e.attack_indices),
                    target_index=e.target_index,
                    families=e.families,
                    botnet_ids=e.botnet_ids,
                    start=e.start,
                    is_inter_family=e.is_inter_family,
                )
            )
    elif isinstance(events[0], AttackChain):
        for e in events:
            out.append(
                AttackChain(
                    attack_indices=tuple(i + base for i in e.attack_indices),
                    target_index=e.target_index,
                    families=e.families,
                    start=e.start,
                    end=e.end,
                    gaps=e.gaps,
                )
            )
    else:
        for e in events:
            out.append(
                dataclasses.replace(
                    e, attack_indices=tuple(i + base for i in e.attack_indices)
                )
            )
    return out


def scan_order(grouped: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Scan enumeration order from a merged target grouping dict.

    The kernels enumerate rows by ``lexsort((start, target_idx))``.  The
    dataset is globally start-sorted, so each target's ascending-index
    group *is* its start order (stable ties included), and the groups are
    already keyed ascending — target-major concatenation reproduces the
    lexsort without sorting anything.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(list(grouped.values()))


def _linked_mask(
    targets: np.ndarray, starts: np.ndarray, ends: np.ndarray, kind: str
) -> np.ndarray:
    """Adjacent-pair link mask in scan order (``mask[i]`` links ``i, i+1``).

    For collaborations a "link" means *same run* (start-window adjacency);
    for chains it is the kernel's chain-link predicate.
    """
    same_target = targets[1:] == targets[:-1]
    if kind == "collaborations":
        return same_target & (starts[1:] - starts[:-1] <= START_WINDOW_SECONDS)
    if kind == "chains":
        return (
            same_target
            & (np.abs(starts[1:] - ends[:-1]) <= CHAIN_MARGIN_SECONDS)
            & (starts[1:] - starts[:-1] > 1.0)
        )
    raise ValueError(f"unknown scan kind {kind!r}")


def _materialize_row_runs(ds, row_segs: Sequence[np.ndarray], kind: str) -> list:
    """Regenerate the scan events of boundary-crossing runs.

    ``row_segs`` holds one ascending global-row array per crossing run.
    Collaboration runs are rescanned through :class:`_AttackSlice` (the
    kernel may split a run into several events or none; runs on the same
    target are separated by more than the start window, and different
    targets never merge, so the slice rescan is exact).  Chains map
    one-to-one onto linked runs, so they are materialised directly —
    rescanning a slice would be *wrong* here: the >1 s stagger condition
    means omitted in-between rows can break links the slice cannot see.
    """
    if not row_segs:
        return []
    if kind == "collaborations":
        rows = np.sort(np.concatenate(list(row_segs)))
        shim = _AttackSlice(ds, rows)
        fresh = _detect_collaborations(
            shim, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
        )
        return [
            dataclasses.replace(
                e, attack_indices=tuple(int(rows[i]) for i in e.attack_indices)
            )
            for e in fresh
        ]
    if kind != "chains":
        raise ValueError(f"unknown scan kind {kind!r}")
    chains = []
    for seg in row_segs:
        s = ds.start[seg]
        e = ds.end[seg]
        chains.append(
            AttackChain(
                attack_indices=tuple(int(i) for i in seg),
                target_index=int(ds.target_idx[seg[0]]),
                families=tuple(
                    ds.family_name(int(k)) for k in ds.family_idx[seg]
                ),
                start=float(s[0]),
                end=float(e[-1]),
                gaps=tuple(float(g) for g in (s[1:] - e[:-1])),
            )
        )
    return chains


def _merge_sorted_events(kept: list, fresh: list) -> list:
    """Merge kept (already sorted) and few fresh events by (start, target).

    Equal-start events only arise across targets, and both scans emit at
    most one event per (start, target) — the key is a total order that
    matches the global kernel's stable target-major enumeration.
    """
    key = lambda e: (e.start, e.target_index)  # noqa: E731
    if not fresh:
        return kept
    fresh = sorted(fresh, key=key)
    if not kept:
        return fresh
    if len(fresh) <= 32:
        out = kept
        for e in fresh:
            bisect.insort(out, e, key=key)
        return out
    starts = np.fromiter(
        (e.start for e in kept), dtype=np.float64, count=len(kept)
    )
    out = []
    prev = 0
    for e in fresh:
        pos = int(np.searchsorted(starts, e.start, side="left"))
        while (
            pos < len(kept)
            and kept[pos].start == e.start
            and kept[pos].target_index < e.target_index
        ):
            pos += 1
        pos = max(pos, prev)
        out.extend(kept[prev:pos])
        out.append(e)
        prev = pos
    out.extend(kept[prev:])
    return out


def stitch_scan_events(
    parts: Sequence[list],
    ds,
    grouped: dict[int, np.ndarray],
    bases: Sequence[int],
    kind: str,
) -> tuple[list, set[int]]:
    """Merge per-shard event lists already carrying global attack indices.

    One array pass finds the runs whose rows span more than one shard,
    every per-shard event belonging to such a run is dropped, and only
    those runs are regenerated from the merged columns.  Returns
    ``(events, targets)`` where ``targets`` is the set of target ids
    that needed stitching.

    When nothing crosses a boundary, the shard-order concatenation is
    already globally sorted (per-shard lists are start-sorted and shard
    start ranges are disjoint) and is returned as-is.
    """
    n = int(ds.n_attacks)
    if n == 0:
        return [], set()
    order = scan_order(grouped, n)
    targets = ds.target_idx[order]
    starts = ds.start[order]
    ends = ds.end[order]
    linked = _linked_mask(targets, starts, ends, kind)
    bases_arr = np.asarray(list(bases), dtype=np.int64)
    part_of = np.searchsorted(bases_arr, order, side="right") - 1
    cross_adj = linked & (part_of[1:] != part_of[:-1])
    if not cross_adj.any():
        return [e for part in parts for e in part], set()
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = ~linked
    run_id = np.cumsum(new_run) - 1
    crossing = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    crossing[run_id[1:][cross_adj]] = True
    in_crossing = np.zeros(n, dtype=bool)
    in_crossing[order[crossing[run_id]]] = True
    kept = [
        e
        for part in parts
        for e in part
        if not in_crossing[e.attack_indices[0]]
    ]
    run_first = np.flatnonzero(new_run)
    run_last = np.concatenate((run_first[1:], [n]))
    segs = [
        order[run_first[r] : run_last[r]] for r in np.flatnonzero(crossing)
    ]
    fresh = _materialize_row_runs(ds, segs, kind)
    stitched = {int(ds.target_idx[seg[0]]) for seg in segs}
    return _merge_sorted_events(kept, fresh), stitched


def seam_stitch_scan_events(
    prev_events: Sequence,
    new_parts: Sequence[list],
    ds,
    grouped: dict[int, np.ndarray],
    bases: Sequence[int],
    kind: str,
) -> tuple[list, set[int]]:
    """Incremental stitch after an append: touch only the new seams.

    ``prev_events`` is the previous merged context's event list (rows
    ``[0, bases[1])``); ``new_parts`` are the appended shards' rebased
    lists.  Instead of an O(n) scan, each seam is probed per target: a
    searchsorted into the target's merged row group finds the adjacent
    pair straddling the seam, and the run is grown outwards only while
    the link predicate holds.  Dropped previous events all have
    ``start >= `` the earliest crossing run's first start, so the kept
    prefix is a bisect, not a filter.
    """
    seams = [int(b) for b in bases[1:]]
    row_starts = ds.start
    row_ends = ds.end

    if kind == "collaborations":

        def linked(a: int, b: int) -> bool:
            return row_starts[b] - row_starts[a] <= START_WINDOW_SECONDS

    elif kind == "chains":

        def linked(a: int, b: int) -> bool:
            return (
                abs(row_starts[b] - row_ends[a]) <= CHAIN_MARGIN_SECONDS
                and row_starts[b] - row_starts[a] > 1.0
            )

    else:
        raise ValueError(f"unknown scan kind {kind!r}")

    seen: set[tuple[int, int, int]] = set()
    segs: list[np.ndarray] = []
    for target, g in grouped.items():
        for seam in seams:
            pos = int(np.searchsorted(g, seam))
            if pos == 0 or pos == g.size:
                continue
            if not linked(g[pos - 1], g[pos]):
                continue
            lo, hi = pos - 1, pos + 1
            while lo > 0 and linked(g[lo - 1], g[lo]):
                lo -= 1
            while hi < g.size and linked(g[hi - 1], g[hi]):
                hi += 1
            # Maximal runs from different seams are equal or disjoint —
            # abutting-but-unlinked neighbours must stay separate runs.
            if (target, lo, hi) not in seen:
                seen.add((target, lo, hi))
                segs.append(g[lo:hi])
    prev_events = list(prev_events)
    if not segs:
        return prev_events + [e for part in new_parts for e in part], set()
    crossing_rows = {int(i) for seg in segs for i in seg}
    threshold = min(float(row_starts[seg[0]]) for seg in segs)
    cut = bisect.bisect_left(prev_events, threshold, key=lambda e: e.start)
    kept = prev_events[:cut]
    kept.extend(
        e for e in prev_events[cut:] if e.attack_indices[0] not in crossing_rows
    )
    for part in new_parts:
        kept.extend(e for e in part if e.attack_indices[0] not in crossing_rows)
    fresh = _materialize_row_runs(ds, segs, kind)
    stitched = {int(ds.target_idx[seg[0]]) for seg in segs}
    return _merge_sorted_events(kept, fresh), stitched


# -- foldable shard partials -----------------------------------------------


@dataclasses.dataclass
class ShardPartial:
    """The re-reduction state of one contiguous shard range ``[lo, hi)``.

    Everything in here merges under :func:`combine_partials` — a small,
    associative algebra (integer sums, sorted-unique unions), bitwise
    stable under any grouping, so folding appended shards onto a
    previous merge's partial equals folding every shard from scratch.
    Combining two time-adjacent partials costs about the seam, not the
    range: the weekly (week, bot) tables share at most their boundary
    week, and only that week's rows are re-sorted
    (:func:`merge_weekly_pairs`).  The concatenation-shaped views
    (index groupings, per-family series, scan events) stay out: they are linear-size and assembled once
    during finalisation instead of being copied at every combine.
    """

    lo: int
    hi: int
    target_country_counts: tuple[np.ndarray, np.ndarray]
    target_org_counts: tuple[np.ndarray, np.ndarray]
    protocol_breakdown: list[tuple[Protocol, str, int]]
    protocol_popularity: dict[Protocol, int]
    #: family name (or ``None`` for the headline) -> per-day counts
    daily_counts: dict[str | None, np.ndarray]
    #: family name -> ``(weeks_u, u_week, u_bot)`` weekly-shift table
    weekly_pairs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: family name -> ``(uniq, counts)`` target-country marginal
    family_country_counts: dict[str, tuple[np.ndarray, np.ndarray]]
    families: tuple[str, ...]


def make_shard_partial(ctx, families: Sequence[str], index: int) -> ShardPartial:
    """Extract one shard's :class:`ShardPartial` from its built context."""
    daily: dict[str | None, np.ndarray] = {
        None: ctx.daily_distribution(None).counts
    }
    for family in families:
        daily[family] = ctx.daily_distribution(family).counts
    return ShardPartial(
        lo=index,
        hi=index + 1,
        target_country_counts=ctx.target_country_counts(),
        target_org_counts=ctx.target_org_counts(),
        protocol_breakdown=ctx.protocol_breakdown(),
        protocol_popularity=ctx.protocol_popularity(),
        daily_counts=daily,
        weekly_pairs={f: ctx.weekly_shift_pairs(f) for f in families},
        family_country_counts={
            f: ctx.family_target_country_counts(f) for f in families
        },
        families=tuple(families),
    )


def _pad_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(max(a.size, b.size), dtype=a.dtype)
    out[: a.size] += a
    out[: b.size] += b
    return out


def combine_partials(a: ShardPartial, b: ShardPartial) -> ShardPartial:
    """Combine two adjacent shard partials (``a`` left of ``b``)."""
    if a.hi != b.lo:
        raise ValueError(f"non-adjacent partials: [{a.lo},{a.hi}) + [{b.lo},{b.hi})")
    daily: dict[str | None, np.ndarray] = {}
    for key in dict.fromkeys([*a.daily_counts, *b.daily_counts]):
        pa = a.daily_counts.get(key)
        pb = b.daily_counts.get(key)
        daily[key] = pa if pb is None else pb if pa is None else _pad_sum(pa, pb)
    weekly: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for key in dict.fromkeys([*a.weekly_pairs, *b.weekly_pairs]):
        pa = a.weekly_pairs.get(key)
        pb = b.weekly_pairs.get(key)
        weekly[key] = (
            pa if pb is None else pb if pa is None else merge_weekly_pairs([pa, pb])
        )
    fam_counts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for key in dict.fromkeys([*a.family_country_counts, *b.family_country_counts]):
        pa = a.family_country_counts.get(key)
        pb = b.family_country_counts.get(key)
        fam_counts[key] = (
            pa if pb is None else pb if pa is None else merge_counts([pa, pb])
        )
    return ShardPartial(
        lo=a.lo,
        hi=b.hi,
        target_country_counts=merge_counts(
            [a.target_country_counts, b.target_country_counts]
        ),
        target_org_counts=merge_counts([a.target_org_counts, b.target_org_counts]),
        protocol_breakdown=merge_protocol_breakdown(
            [a.protocol_breakdown, b.protocol_breakdown]
        ),
        protocol_popularity=merge_protocol_popularity(
            [a.protocol_popularity, b.protocol_popularity]
        ),
        daily_counts=daily,
        weekly_pairs=weekly,
        family_country_counts=fam_counts,
        families=tuple(sorted(set(a.families) | set(b.families))),
    )


# -- sketch summaries ------------------------------------------------------


def sketch_summaries(summaries):
    """Reduce per-shard :class:`~repro.sketch.AttackStreamSummary` values.

    The sketch counterpart of the exact combinators above: every member
    structure merges under its own associative algebra (Count-Min adds,
    HLL maxes, KLL compacts), so any merge tree over the same shards
    answers queries under the same documented error contract.  The only
    boundary artefact is the one inter-attack interval spanning each
    shard edge, which no shard observed (see
    :meth:`repro.sketch.AttackStreamSummary.merge`) — the exact-interval
    combinator :func:`interval_pieces` reinserts such gaps, the sketch
    one cannot.

    The inputs are left untouched (the reduce starts from a copy).
    Raises ``ValueError`` on an empty sequence — an empty *summary* is a
    fine identity, but the caller must pick its parameters.
    """
    parts = list(summaries)
    if not parts:
        raise ValueError("sketch_summaries needs at least one summary")
    merged = parts[0].copy()
    for part in parts[1:]:
        merged.merge(part)
    return merged
