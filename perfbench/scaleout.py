"""The ``scaleout`` workload: shard build, tree merge, append and re-merge.

The benchmark synthesizes ``ROWS`` attack rows from the seed on a tiny
generated base (world, registries, families and botnets are real; rows
are sorted columns, two participants each), plus one more shard's worth
held back for the append.  One iteration partitions the rows into
``SHARDS`` time shards on disk (set-up), then:

* ``answer_s`` — ``ShardedDatasetStore`` open, ``ShardedAnalysisContext``
  ``build(jobs)`` and ``merged(jobs)``, ``run_all`` rendered;
* ``reanswer_s`` — ``append_shard`` of the held-back rows, ``refresh``,
  ``build_shard`` of the new shard, the incremental ``merged`` and
  ``run_all`` again.

The merged battery must equal a flat ``AnalysisContext`` battery over the
same rows, and the appended one a flat battery over all rows; both
checks run after the timed loop.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

import numpy as np

import harness as hz

ROWS = 100_000
SHARDS = 8
IMPORTS = [
    "repro.datagen.generator", "repro.io.colstore", "repro.core.context",
    "repro.experiments.registry",
]


def synthesize(base, rng: np.random.Generator, n: int):
    """``n`` attack rows as sorted columns over ``base``'s registries."""
    w = base.window
    start = np.sort(rng.uniform(float(w.start), float(w.end), n))
    duration = rng.exponential(1800.0, n) + 1.0
    family_ids = np.array(
        sorted(base.families.index(f) for f in base.active_families), dtype=np.int16
    )
    family_idx = rng.choice(family_ids, n)
    botnet_id = rng.choice(np.array([b.botnet_id for b in base.botnets], dtype=np.int32), n)
    order = np.lexsort((botnet_id, start))
    start, family_idx, botnet_id = start[order], family_idx[order], botnet_id[order]
    return dataclasses.replace(
        base,
        start=start,
        end=start + duration,
        family_idx=family_idx,
        botnet_id=botnet_id,
        protocol=rng.choice(np.unique(base.protocol), n),
        target_idx=rng.integers(0, base.victims.ip.size, n, dtype=np.int32),
        magnitude=rng.integers(1, 10, n, dtype=np.int32),
        part_offsets=np.arange(0, 2 * n + 1, 2, dtype=np.int64),
        participants=rng.integers(0, base.bots.ip.size, 2 * n, dtype=np.int64),
        truth_collab_group=np.full(n, -1, dtype=np.int32),
        truth_collab_kind=np.zeros(n, dtype=np.int8),
        truth_chain_id=np.full(n, -1, dtype=np.int32),
        truth_symmetric=np.zeros(n, dtype=bool),
        truth_residual_km=np.zeros(n, dtype=np.float64),
    )


def run(seed: int, seconds: float, traced: bool, tracer: hz.Tracer, clock: hz.Clock,
        jobs: int) -> hz.Outcome:
    hz.time_imports(clock, IMPORTS)

    import repro.obs as obs
    from repro.core.context import AnalysisContext, ShardedAnalysisContext
    from repro.datagen.config import DatasetConfig
    from repro.datagen.generator import generate_dataset
    from repro.experiments.registry import ALL_EXPERIMENTS, run_all
    from repro.io.colstore import (
        ShardedDatasetStore, _slice_dataset, append_shard, save_sharded_npz,
    )

    out = hz.Outcome()
    reg = obs.registry()
    base_seed, rows_seed = np.random.SeedSequence([seed, 2]).generate_state(2)
    base_cfg = DatasetConfig.tiny(seed=int(base_seed))
    base = generate_dataset(base_cfg, jobs=jobs)
    tail_rows = ROWS // SHARDS
    ds_all = synthesize(base, np.random.default_rng(int(rows_seed)), ROWS + tail_rows)
    ds = _slice_dataset(ds_all, 0, ROWS)
    tail = _slice_dataset(ds_all, ROWS, ROWS + tail_rows)

    walls = {True: [], False: []}
    battery, rebattery = set(), set()
    modes = []
    counts = hz.LayerCounts()
    exp_s = {e.id: 0.0 for e in ALL_EXPERIMENTS}
    snap0 = reg.snapshot()
    jobs_effective = 0.0
    iterations = 0
    deadline = time.perf_counter() + seconds

    def answer(span: str, ctx) -> list[str]:
        """The battery on ``ctx``, its view builds billed to their layers."""
        if tracer.enabled:
            stages0 = hz.stage_walls(reg)
        with tracer.span(span):
            renders = [r.render() for r in run_all(ctx)]
            if tracer.enabled:
                stages1 = hz.stage_walls(reg)
                hz.attach_view_builds(tracer, stages0, stages1)
        if tracer.enabled:
            hz.experiment_seconds(stages0, stages1, exp_s)
        return renders

    while iterations < 2 + traced or time.perf_counter() < deadline:
        tracer.enabled = traced and iterations % 2 == 1
        store_dir = hz.OUT / f"store-{seed}-{time.monotonic_ns()}"
        before = reg.snapshot() if tracer.enabled else None
        t_iter = time.perf_counter()
        try:
            with tracer.span("iteration"):
                # Partitioning is set-up: the store each iteration answers from.
                with clock.timed("partition"), tracer.span("io.partition_save"):
                    save_sharded_npz(ds, store_dir, shards=SHARDS)
                with clock.timed("build"):
                    with tracer.span("io.store_open"):
                        store = ShardedDatasetStore(store_dir)
                    with tracer.span("core.context"):
                        sctx = ShardedAnalysisContext(store)
                    with tracer.span("core.shard_build"):
                        sctx.build(jobs)
                jobs_effective = reg.gauge("par.jobs").value
                with clock.timed("merge"), tracer.span("core.merge"):
                    merged = sctx.merged(jobs)
                with clock.timed("battery"):
                    renders = answer("experiments.battery", merged)
                clock.combine("answer", ["build", "merge", "battery"])
                with clock.timed("append"):
                    with tracer.span("io.append_shard"):
                        append_shard(store_dir, tail)
                    with tracer.span("core.refresh"):
                        sctx.refresh()
                    with tracer.span("core.append_build"):
                        sctx.build_shard(sctx.n_shards - 1)
                    with tracer.span("core.remerge"):
                        remerged = sctx.merged(jobs)
                with clock.timed("rebattery"):
                    rerenders = answer("experiments.rebattery", remerged)
                clock.combine("reanswer", ["append", "rebattery"])
            modes.append(sctx.last_merge_stats["mode"])
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        battery.add(hz.digest(renders))
        rebattery.add(hz.digest(rerenders))
        out.attempted += 2
        if iterations:  # the first unit warms the process up
            walls[tracer.enabled].append(time.perf_counter() - t_iter)
        if tracer.enabled:
            counts.add(hz.Delta(before, reg.snapshot()))
        iterations += 1
    tracer.enabled = False
    peak = hz.peak_rss_mb()

    # Correctness gates, outside every timed region.
    flat = [r.render() for r in run_all(AnalysisContext(ds))]
    out.gate("merged battery equals the flat battery", battery == {hz.digest(flat)})
    flat_all = [r.render() for r in run_all(AnalysisContext(ds_all))]
    out.gate("appended battery equals the flat battery over all rows",
             rebattery == {hz.digest(flat_all)})
    out.gate("every re-merge after the append is incremental",
             set(modes) == {"incremental"}, ",".join(modes))
    out.gate("18 non-empty renders", len(renders) == 18 and all(r.strip() for r in renders))
    out.digest = hz.digest(renders + rerenders)

    out.end_to_end = {
        # Set-up is the imports plus the partition write of the store.
        "setup_s": (clock.median("setup") + clock.median("partition"), "s"),
        "answer_s": (clock.median("answer"), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    out.report = {
        "reanswer_s": (clock.median("reanswer"), "s"),
        "error_rate": (out.failed / max(1, out.attempted), "ratio"),
        "answer_wall_s": (clock.raw_median("answer"), "s"),
        "reanswer_wall_s": (clock.raw_median("reanswer"), "s"),
    }
    out.samples = {"wall": clock.wall, "calibrated": clock.cal}
    out.inputs = {
        "base_seed": int(base_seed),
        "rows_seed": int(rows_seed),
        "base_scale": base_cfg.scale,
        "attacks": ROWS,
        "shards": SHARDS,
        "append_rows": tail_rows,
        "iterations": iterations,
        "samples": {k: len(v) for k, v in clock.cal.items()},
    }
    if traced:
        n = len(walls[True])
        rows, total = tracer.rollup(n)
        out.per_layer = {
            "io.partition_save_s": tracer.total("io.partition_save") / n,
            "io.store_open_s": tracer.total("io.store_open") / n,
            "io.append_shard_s": tracer.total("io.append_shard") / n,
            **counts.per_layer(n),
            "core.shard_build_s": tracer.total("core.shard_build") / n,
            "core.merge_s": tracer.total("core.merge") / n,
            "core.append_build_s": tracer.total("core.append_build") / n,
            "core.remerge_s": tracer.total("core.remerge") / n,
            "experiments.self_s": tracer.self_seconds("experiments.battery") / n,
            "experiments.rebattery_s": tracer.total("experiments.rebattery") / n,
            # Both batteries of an iteration.
            **{f"experiments.{k}_s": v / (2 * n) for k, v in exp_s.items()},
            **hz.par_tasks(hz.Delta(snap0, reg.snapshot()), iterations),
            "par.jobs_effective": jobs_effective,
            "unattributed_s": rows["unattributed"],
            "trace.overhead_s": hz.median(walls[True]) - hz.median(walls[False]),
        }
        out.trace_rows = rows
        out.traced_total_s = total
    return out
