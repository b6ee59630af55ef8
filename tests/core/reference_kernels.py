"""Reference kernels: the loops the vectorised kernels replaced.

Each function here is the original, straightforward implementation of a
kernel that ``repro`` now computes with array passes.  They are kept
only as oracles: ``tests/core/test_kernel_parity.py`` and
``tests/core/test_answer_kernels.py`` pin the shipped kernels equal to
them (exactly, except the snapshot dispersions, whose float summation
order differs).

* :func:`reference_weekly_shift` — ``core.shift._weekly_shift`` (Fig 8);
* :func:`reference_detect_chains` — ``core.consecutive._detect_chains``;
* :func:`reference_detect_collaborations` —
  ``core.collaboration._detect_collaborations``;
* :func:`reference_snapshot_dispersions` —
  ``core.geolocation._snapshot_dispersions``;
* :func:`reference_organization_affinity` — ``core.targets.organization_affinity``
  (Fig 14: per-row ``datetime`` month tags, one mask per organization);
* :func:`reference_fig18_counts` — the Fig 18 timeline-dot and
  stable-magnitude counts (``chain_timeline`` plus one array per chain).
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from repro.core.collaboration import CollabEvent
from repro.core.consecutive import AttackChain, chain_timeline
from repro.core.context import AnalysisContext, AnalysisSource
from repro.core.shift import WeeklyShift
from repro.core.targets import OrganizationSpot
from repro.geo.haversine import dispersion_km
from repro.monitor.snapshots import iter_hourly_snapshots


def reference_weekly_shift(ctx: AnalysisContext, family: str) -> WeeklyShift:
    """Per-week loop with an accumulating ``seen`` country set."""
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    weeks_of_attack = ((ds.start[idx] - ds.window.start) // (7 * 86400)).astype(np.int64)

    weeks: list[int] = []
    existing_counts: list[int] = []
    new_counts: list[int] = []
    new_country_counts: list[int] = []
    seen: set[int] = set()
    for week in np.unique(weeks_of_attack):
        attack_ids = idx[weeks_of_attack == week]
        bots = np.unique(
            np.concatenate([ds.participants_of(int(i)) for i in attack_ids])
        )
        countries = ds.bots.country_idx[bots]
        if seen:
            known = np.isin(countries, list(seen))
        else:
            known = np.ones(countries.size, dtype=bool)  # baseline week
        fresh = {int(c) for c in np.unique(countries[~known])}
        weeks.append(int(week))
        existing_counts.append(int(np.sum(known)))
        new_counts.append(int(np.sum(~known)))
        new_country_counts.append(len(fresh))
        seen.update(int(c) for c in np.unique(countries))
    return WeeklyShift(
        family=family,
        weeks=np.asarray(weeks, dtype=np.int64),
        bots_existing=np.asarray(existing_counts, dtype=np.int64),
        bots_new=np.asarray(new_counts, dtype=np.int64),
        new_countries=np.asarray(new_country_counts, dtype=np.int64),
    )


def reference_detect_chains(ds, margin: float, min_length: int) -> list[AttackChain]:
    """Per-target Python walk linking each attack to its predecessor."""
    chains: list[AttackChain] = []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    boundaries = np.flatnonzero(np.diff(targets) != 0) + 1
    for group in np.split(order, boundaries):
        if group.size < min_length:
            continue
        current: list[int] = [int(group[0])]
        gaps: list[float] = []

        def flush() -> None:
            if len(current) >= min_length:
                chains.append(
                    AttackChain(
                        attack_indices=tuple(current),
                        target_index=int(ds.target_idx[current[0]]),
                        families=tuple(
                            ds.family_name(int(ds.family_idx[i])) for i in current
                        ),
                        start=float(ds.start[current[0]]),
                        end=float(ds.end[current[-1]]),
                        gaps=tuple(gaps),
                    )
                )

        for i in group[1:]:
            prev = current[-1]
            gap = float(ds.start[i] - ds.end[prev])
            starts_apart = float(ds.start[i] - ds.start[prev])
            if abs(gap) <= margin and starts_apart > 1.0:
                current.append(int(i))
                gaps.append(gap)
            else:
                flush()
                current = [int(i)]
                gaps = []
        flush()
    chains.sort(key=lambda c: c.start)
    return chains


def reference_detect_collaborations(
    ds, start_window: float, duration_window: float
) -> list[CollabEvent]:
    """Per-target, per-run Python loop with a ``seen_botnets`` set."""
    events: list[CollabEvent] = []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    boundaries = np.flatnonzero(np.diff(targets) != 0) + 1
    for group in np.split(order, boundaries):
        if group.size < 2:
            continue
        starts = ds.start[group]
        # Runs of near-simultaneous starts on this target.
        run_break = np.flatnonzero(np.diff(starts) > start_window) + 1
        for run in np.split(group, run_break):
            if run.size < 2:
                continue
            base_duration = float(ds.end[run[0]] - ds.start[run[0]])
            keep: list[int] = []
            seen_botnets: set[int] = set()
            for i in run:
                botnet = int(ds.botnet_id[i])
                duration = float(ds.end[i] - ds.start[i])
                if botnet in seen_botnets:
                    continue
                if abs(duration - base_duration) > duration_window:
                    continue
                seen_botnets.add(botnet)
                keep.append(int(i))
            if len(keep) < 2:
                continue
            families = tuple(
                sorted({ds.family_name(int(ds.family_idx[i])) for i in keep})
            )
            events.append(
                CollabEvent(
                    attack_indices=tuple(keep),
                    target_index=int(ds.target_idx[keep[0]]),
                    families=families,
                    botnet_ids=tuple(int(ds.botnet_id[i]) for i in keep),
                    start=float(min(ds.start[i] for i in keep)),
                    is_inter_family=len(families) > 1,
                )
            )
    events.sort(key=lambda e: e.start)
    return events


def reference_snapshot_dispersions(
    source: AnalysisSource, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-snapshot loop over ``iter_hourly_snapshots``.

    The batched kernel and this loop sum floating-point terms in
    different orders, so parity is asserted with ``np.allclose`` rather
    than bitwise equality.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    offsets, flat = ctx.family_participants(family)
    times: list[float] = []
    values: list[float] = []
    for snap in iter_hourly_snapshots(ds.start[idx], offsets, flat, ds.window, family):
        if snap.n_bots < 2:
            continue
        times.append(snap.timestamp)
        values.append(
            dispersion_km(ds.bots.lat[snap.bot_indices], ds.bots.lon[snap.bot_indices])
        )
    return np.asarray(times), np.asarray(values)


def reference_organization_affinity(
    source: AnalysisSource, family: str, year: int | None = None, month: int | None = None
) -> list[OrganizationSpot]:
    """Fig 14 with a ``datetime`` per attack and a mask per organization."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    if (year is None) != (month is None):
        raise ValueError("pass both year and month, or neither")
    if year is not None:
        month_tags = np.array(
            [
                (d.year, d.month)
                for d in (
                    datetime.fromtimestamp(ts, tz=timezone.utc) for ts in ds.start[idx]
                )
            ]
        )
        keep = (month_tags[:, 0] == year) & (month_tags[:, 1] == month)
        idx = idx[keep]
        if idx.size == 0:
            return []
    targets = ds.target_idx[idx]
    orgs = ds.victims.org_idx[targets]
    uniq, counts = np.unique(orgs, return_counts=True)
    spots = []
    for org_index, count in zip(uniq, counts):
        org = ds.world.organizations[int(org_index)]
        city = ds.world.cities[org.city_index]
        country = ds.world.countries[org.country_index]
        n_targets = int(np.unique(targets[orgs == org_index]).size)
        spots.append(
            OrganizationSpot(
                organization=org.name,
                org_type=org.org_type,
                country_code=country.code,
                city=city.name,
                lat=city.lat,
                lon=city.lon,
                attack_count=int(count),
                n_targets=n_targets,
            )
        )
    spots.sort(key=lambda s: (-s.attack_count, s.organization))
    return spots


def reference_fig18_counts(source: AnalysisSource) -> tuple[int, str]:
    """Fig 18's ``timeline dots`` and ``chains with stable magnitudes`` cells."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    chains = ctx.chains()
    dots = chain_timeline(ctx, chains)
    stable = 0
    for chain in chains:
        mags = np.array([ds.magnitude[i] for i in chain.attack_indices], dtype=float)
        if mags.size and (mags.max() - mags.min()) / max(mags.max(), 1.0) <= 0.3:
            stable += 1
    return len(dots), f"{stable}/{len(chains)}"
