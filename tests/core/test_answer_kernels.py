"""The scale-out answer kernels against the loops they replaced.

* ``merge.merge_weekly_pairs`` (seam-only union) against the full
  re-sort in ``tests/core/merge_reference.py``, on random weekly tables
  that overlap, are disjoint, empty, single-week or out of order;
* Fig 14's month filter and per-organization target counts against the
  per-row ``datetime`` loop, right at month edges;
* Fig 18's dot and stable-magnitude counts against ``chain_timeline``
  plus a per-chain array;

all oracles from ``tests/core/reference_kernels.py``.  The renders are
also compared on the flat and on K-shard merged contexts.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core import merge
from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.core.targets import organization_affinity
from repro.experiments import fig14_orgs, fig18_chains
from repro.io.colstore import ShardedDatasetStore
from repro.io.ingest import dataset_from_records

from . import merge_reference
from .reference_kernels import reference_fig18_counts, reference_organization_affinity
from .test_kernel_parity import _record

# -- weekly (week, bot) pair tables ----------------------------------------


def _table(rng: np.random.Generator, lo: int, hi: int, n: int):
    """A sorted-unique ``(weeks_u, u_week, u_bot)`` table over weeks [lo, hi]."""
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty.copy()
    w = rng.integers(lo, hi + 1, n).astype(np.int64)
    b = rng.integers(0, 40, n).astype(np.int64)
    # Attack weeks: every participant week plus a few participant-less ones.
    extra = rng.integers(lo, hi + 1, 2).astype(np.int64)
    table = merge_reference.merge_weekly_pairs(
        [(np.concatenate((w, extra)), w, b)]
    )
    return table


def _assert_tables_equal(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


LAYOUTS = {
    "boundary_week": [(0, 5), (5, 9), (9, 12)],
    "overlapping": [(0, 8), (3, 9), (2, 6)],
    "disjoint": [(0, 3), (5, 8), (10, 11)],
    "single_week": [(4, 4), (4, 4), (4, 4)],
    "reordered": [(9, 12), (0, 5), (5, 9)],
}


class TestSeamUnion:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matches_full_resort(self, layout, seed):
        rng = np.random.default_rng(seed)
        parts = [_table(rng, lo, hi, int(rng.integers(1, 60))) for lo, hi in LAYOUTS[layout]]
        _assert_tables_equal(
            merge.merge_weekly_pairs(parts), merge_reference.merge_weekly_pairs(parts)
        )
        # Any pairwise fold order of the same parts gives the same table.
        for order in ([2, 0, 1], [1, 2, 0]):
            shuffled = [parts[i] for i in order]
            _assert_tables_equal(
                merge.merge_weekly_pairs(shuffled),
                merge_reference.merge_weekly_pairs(parts),
            )

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_empty_part(self, where):
        rng = np.random.default_rng(where)
        parts = [_table(rng, 0, 5, 30), _table(rng, 5, 9, 30), _table(rng, 9, 12, 30)]
        parts[where] = _table(rng, 0, 0, 0)
        _assert_tables_equal(
            merge.merge_weekly_pairs(parts), merge_reference.merge_weekly_pairs(parts)
        )

    def test_all_empty_and_single(self):
        rng = np.random.default_rng(0)
        empty = _table(rng, 0, 0, 0)
        _assert_tables_equal(
            merge.merge_weekly_pairs([empty, empty]),
            merge_reference.merge_weekly_pairs([empty, empty]),
        )
        one = _table(rng, 2, 7, 25)
        _assert_tables_equal(
            merge.merge_weekly_pairs([one]), merge_reference.merge_weekly_pairs([one])
        )

    def test_participant_less_parts(self):
        """Parts with attack weeks but no (week, bot) pairs."""
        empty = np.zeros(0, dtype=np.int64)
        parts = [
            (np.array([0, 3], dtype=np.int64), empty, empty),
            _table(np.random.default_rng(5), 3, 6, 20),
            (np.array([6, 8], dtype=np.int64), empty, empty),
        ]
        _assert_tables_equal(
            merge.merge_weekly_pairs(parts), merge_reference.merge_weekly_pairs(parts)
        )


# -- Fig 14 ----------------------------------------------------------------


def _edge_dataset(edge: float, offsets: list[float]):
    """Pandora attacks at ``edge + offset`` on three rotating targets."""
    return dataset_from_records(
        [
            _record(i, botnet=1, family="pandora", target=i % 3 + 1, start=edge + d, duration=60.0)
            for i, d in enumerate(offsets)
        ]
    )


EDGE_OFFSETS = [-86400.0, -1e-6, -4e-7, 0.0, 4e-7, 1e-6, 86400.0]


class TestMonthFilter:
    @pytest.mark.parametrize(
        "edge_ym, months",
        [
            ((2013, 3), [(2013, 2), (2013, 3), (2013, 4)]),
            ((2013, 1), [(2012, 12), (2013, 1), (2013, 2)]),
        ],
    )
    def test_month_edges(self, edge_ym, months):
        edge = datetime(*edge_ym, 1, tzinfo=timezone.utc).timestamp()
        ds = _edge_dataset(edge, EDGE_OFFSETS)
        seen = 0
        for year, month in months:
            got = organization_affinity(ds, "pandora", year=year, month=month)
            assert got == reference_organization_affinity(
                ds, "pandora", year=year, month=month
            )
            seen += sum(s.attack_count for s in got)
        assert seen == len(EDGE_OFFSETS)

    def test_rounding_edge_counts_in_new_month(self):
        """Half a microsecond early rounds onto the 1st, as ``datetime`` does."""
        edge = datetime(2013, 3, 1, tzinfo=timezone.utc).timestamp()
        ds = _edge_dataset(edge, [-1e-6, -4e-7])
        feb = organization_affinity(ds, "pandora", year=2013, month=2)
        mar = organization_affinity(ds, "pandora", year=2013, month=3)
        assert [s.attack_count for s in feb] == [1]
        assert [s.attack_count for s in mar] == [1]

    def test_no_pandora_in_feb_2013(self):
        edge = datetime(2013, 4, 1, tzinfo=timezone.utc).timestamp()
        ds = _edge_dataset(edge, [0.0, 3600.0, 7200.0])
        assert organization_affinity(ds, "pandora", year=2013, month=2) == []
        assert reference_organization_affinity(ds, "pandora", year=2013, month=2) == []

    def test_no_such_month(self, small_ds):
        assert organization_affinity(small_ds, "pandora", year=2013, month=13) == []

    def test_small_ds_every_family(self, small_ds):
        ctx = AnalysisContext(small_ds)
        for family in small_ds.active_families:
            if not ctx.family_attacks(family).size:
                continue
            assert organization_affinity(ctx, family) == reference_organization_affinity(
                ctx, family
            )
            for year, month in ((2012, 9), (2013, 2)):
                assert organization_affinity(
                    ctx, family, year=year, month=month
                ) == reference_organization_affinity(ctx, family, year=year, month=month)


# -- renders on flat and merged contexts -------------------------------------


def _contexts(small_ds, k: int):
    if k == 1:
        return AnalysisContext(small_ds)
    sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=k))
    sctx.build(jobs=1)
    return sctx.merged()


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fig14_render_matches_reference(small_ds, k, monkeypatch):
    ctx = _contexts(small_ds, k)
    got = fig14_orgs.run(ctx).render()
    monkeypatch.setattr(fig14_orgs, "organization_affinity", reference_organization_affinity)
    assert got == fig14_orgs.run(ctx).render()


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fig18_counts_match_reference(small_ds, k):
    ctx = _contexts(small_ds, k)
    rows = {row.label: row.measured for row in fig18_chains.run(ctx).rows}
    dots, stable = reference_fig18_counts(ctx)
    assert rows["timeline dots"] == str(dots)
    assert rows["chains with stable magnitudes"] == stable
