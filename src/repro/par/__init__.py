"""``repro.par``: process-parallel execution for the cold path.

See :mod:`repro.par.pool` for the execution model (fork-inherited
payloads, serial fallback, parent-side instrumentation).  It fans out
dataset generation, context prewarm, forecasts and per-shard view
builds; the shard merge that follows the builds folds serially in the
parent.
"""

from .pool import default_jobs, fork_available, parallel_map, resolve_jobs

__all__ = [
    "default_jobs",
    "fork_available",
    "parallel_map",
    "resolve_jobs",
]
