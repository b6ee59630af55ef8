"""The serial left-fold shard merge: the oracle for the tree merge.

:func:`merged_reference` is the pre-tree implementation of
:meth:`repro.core.context.ShardedAnalysisContext.merged`: a serial walk
over all K shards with the conservative boundary-suspect rescan of
collaboration/chain events.  It builds a fresh context on every call
(never cached, no counters), so the merge-parity tests can diff the
tree merge against it view by view.  Views it does not seed (e.g.
snapshot dispersions) build lazily with the flat kernels.
"""

from __future__ import annotations

from repro.core import merge, shift
from repro.core.context import AnalysisContext, ShardedAnalysisContext


def merged_reference(sctx: ShardedAnalysisContext) -> AnalysisContext:
    """Merge ``sctx``'s shards by the serial reference fold."""
    for index in range(sctx.n_shards):
        sctx.build_shard(index)

    ds = sctx.store.merged_dataset()
    ctx = AnalysisContext.of(ds)
    bases = [int(b) for b in sctx.store.shard_bases()]
    shards = [sctx.shard_context(k) for k in range(sctx.n_shards)]
    shard_ds = [c.dataset for c in shards]
    seed = ctx.seed_view

    seed(("bot_coords_radians",), sctx._shared_bot_coords())
    for gkey, column in (
        ("family_attack_index", "family_idx"),
        ("botnet_attack_index", "botnet_id"),
        ("target_attack_index", "target_idx"),
    ):
        parts = [
            c._groups_by(gkey, getattr(c.dataset, column)) for c in shards
        ]
        seed((gkey,), merge.merge_grouped_indices(parts, bases))
    seed(
        ("attack_intervals",),
        merge.merge_intervals(
            [c.dataset.start for c in shards],
            [c.attack_intervals() for c in shards],
        ),
    )
    seed(("durations",), merge.merge_concat([c.durations() for c in shards]))
    seed(
        ("target_country_idx",),
        merge.merge_concat([c.target_country_idx() for c in shards]),
    )
    seed(
        ("target_org_idx",),
        merge.merge_concat([c.target_org_idx() for c in shards]),
    )
    seed(
        ("target_country_counts",),
        merge.merge_counts([c.target_country_counts() for c in shards]),
    )
    seed(
        ("target_org_counts",),
        merge.merge_counts([c.target_org_counts() for c in shards]),
    )
    seed(
        ("protocol_breakdown",),
        merge.merge_protocol_breakdown(
            [c.protocol_breakdown() for c in shards]
        ),
    )
    seed(
        ("protocol_popularity",),
        merge.merge_protocol_popularity(
            [c.protocol_popularity() for c in shards]
        ),
    )
    seed(
        ("daily_distribution", None),
        merge.merge_daily_distributions(
            [c.daily_distribution(None) for c in shards], ds, None
        ),
    )
    ctx.victim_org_type_counts()

    suspect = merge.find_boundary_suspects(shard_ds, ds.victims.n_targets)
    seed(
        ("collaborations",),
        merge.merge_scan_events(
            [c.collaborations() for c in shards],
            bases,
            suspect,
            ds,
            "collaborations",
        ),
    )
    seed(
        ("chains",),
        merge.merge_scan_events(
            [c.chains() for c in shards], bases, suspect, ds, "chains"
        ),
    )

    present: dict[str, list[int]] = {}
    for k in range(sctx.n_shards):
        for family in sctx.shard_families(k):
            present.setdefault(family, []).append(k)
    for family, in_shards in present.items():
        here = [shards[k] for k in in_shards]
        seed(
            ("family_starts", family),
            merge.merge_concat([c.family_starts(family) for c in here]),
        )
        seed(
            ("family_intervals", family, True),
            merge.merge_intervals(
                [c.family_starts(family) for c in here],
                [c.family_intervals(family) for c in here],
            ),
        )
        seed(
            ("durations", family),
            merge.merge_concat([c.durations(family) for c in here]),
        )
        seed(
            ("family_participants", family),
            merge.merge_csr([c.family_participants(family) for c in here]),
        )
        seed(
            ("attack_dispersions", family),
            merge.merge_series([c.attack_dispersions(family) for c in here]),
        )
        seed(
            ("family_target_country_counts", family),
            merge.merge_counts(
                [c.family_target_country_counts(family) for c in here]
            ),
        )
        seed(
            ("daily_distribution", family),
            merge.merge_daily_distributions(
                [c.daily_distribution(family) for c in here], ds, family
            ),
        )
        pairs = merge.merge_weekly_pairs(
            [c.weekly_shift_pairs(family) for c in here]
        )
        seed(("weekly_shift_pairs", family), pairs)
        seed(
            ("weekly_shift", family),
            shift._finish_weekly_shift(ds, family, *pairs),
        )
    return ctx
