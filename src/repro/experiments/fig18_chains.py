"""Fig 18: consecutive attacks over time with magnitudes."""

from __future__ import annotations

import numpy as np

from ..core.consecutive import chain_summary, detect_chains
from ..core.context import AnalysisContext, AnalysisSource
from ..simulation.clock import to_datetime
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    result = ExperimentResult("fig18_chains")
    chains = detect_chains(ctx)
    if not chains:
        result.add("chains detected", ">0", 0)
        return result
    summary = chain_summary(ctx, chains)
    longest = max(chains, key=lambda c: c.length)
    result.add("longest chain length", 22, summary.longest_chain_length)
    result.add("longest chain family", "ddoser", summary.longest_chain_family)
    result.add(
        "longest chain duration (min)", ">18", f"{summary.longest_chain_duration / 60.0:.1f}"
    )
    result.add(
        "longest chain date",
        "2012-08-30",
        to_datetime(longest.start).strftime("%Y-%m-%d"),
    )
    # One dot per chained attack (``chain_timeline`` lists them for plots).
    lengths = np.fromiter((c.length for c in chains), dtype=np.int64, count=len(chains))
    n_dots = int(lengths.sum())
    result.add("timeline dots", None, n_dots)
    # Magnitude stability within chains (except Dirtjumper's outliers):
    # per-chain max/min over the concatenated chain rows.
    rows = np.fromiter(
        (i for c in chains for i in c.attack_indices), dtype=np.int64, count=n_dots
    )
    mags = ds.magnitude[rows].astype(float)
    firsts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    hi = np.maximum.reduceat(mags, firsts)
    lo = np.minimum.reduceat(mags, firsts)
    stable = int(np.count_nonzero((hi - lo) / np.maximum(hi, 1.0) <= 0.3))
    result.add(
        "chains with stable magnitudes", "most", f"{stable}/{len(chains)}"
    )
    return result


EXPERIMENT = Experiment(
    id="fig18_chains",
    title="Consecutive attacks over time",
    section="V-B (Fig 18)",
    run=run,
)
