"""Fig 14: organization-level target affinity (Pandora, February 2013)."""

from __future__ import annotations

from ..core.context import AnalysisContext, AnalysisSource
from ..core.targets import organization_affinity, victim_org_types
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig14_orgs")
    spots = []
    if "pandora" in ctx.dataset.active_families and ctx.family_attacks("pandora").size:
        spots = organization_affinity(ctx, "pandora", year=2013, month=2)
    result.add("pandora Feb-2013 organizations hit", None, len(spots))
    if spots:
        hotspot = spots[0]
        result.add(
            "largest hotspot",
            "in Russia or USA",
            f"{hotspot.organization} ({hotspot.country_code}, {hotspot.attack_count} attacks)",
        )
        hot_countries = {s.country_code for s in spots[:5]}
        result.add("hotspots include RU", "true", str("RU" in hot_countries).lower())
    types = victim_org_types(ctx)
    total = sum(types.values())
    infra = sum(
        types.get(t, 0) for t in ("hosting", "cloud", "datacenter", "registrar", "backbone")
    )
    result.add(
        "attacks on hosting/cloud/DC/registrar/backbone",
        "most attacks",
        f"{infra}/{total} ({infra / total:.0%})" if total else "n/a",
    )
    return result


EXPERIMENT = Experiment(
    id="fig14_orgs",
    title="Organization-level target affinity",
    section="IV-B2 (Fig 14)",
    run=run,
)
