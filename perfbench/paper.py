"""The ``paper`` workload: generate, store, reload and answer the battery.

One iteration is ``generate_dataset`` + ``save_dataset_npz`` (the
``generate_s`` leg), then ``ANSWERS`` times ``load_dataset_npz`` + a
fresh ``AnalysisContext`` + ``run_all`` with every result rendered (the
``answer_s`` leg: records at rest to 18 rendered results).  Iterations
repeat until the run's seconds are spent.  It never touches the merge,
the shard tree, the stream or the service.
"""

from __future__ import annotations

import gc
import time

import harness as hz

#: Dataset scale (1.0 is the paper's 50,704 attacks).  Paper volume
#: takes about 55 s to generate on 2 CPUs, more than a whole run.
SCALE = 0.05
#: Battery answers per generated dataset (the answer leg is ~20x cheaper).
#: Enough that answering, not generating, fills most of a run: a
#: shared VM's speed flips between two states every few seconds, and the
#: answer_s median only settles when its samples span many of them.
ANSWERS = 32
IMPORTS = [
    "repro.datagen.generator", "repro.io.colstore", "repro.core.context",
    "repro.core.sanity", "repro.experiments.registry",
]


def run(seed: int, seconds: float, traced: bool, tracer: hz.Tracer, clock: hz.Clock,
        jobs: int) -> hz.Outcome:
    hz.time_imports(clock, IMPORTS)

    import repro.obs as obs
    from repro.core.context import AnalysisContext
    from repro.core.sanity import check_no_spoofing
    from repro.datagen.config import DatasetConfig
    from repro.datagen.generator import generate_dataset
    from repro.experiments.registry import ALL_EXPERIMENTS, run_all
    from repro.io.colstore import load_dataset_npz, save_dataset_npz

    out = hz.Outcome()
    reg = obs.registry()
    # The paper configuration keeps its own generator seed: Table IV's
    # Nelder-Mead fit on dirtjumper converges in ~0.04 s or ~0.5 s
    # depending on the generator seed, so a seed-derived dataset would
    # make answer_s bimodal across runs.
    config = DatasetConfig(scale=SCALE)
    npz = hz.OUT / f"paper-{seed}-{time.monotonic_ns()}.npz"
    digests: set[str] = set()
    walls = {True: [], False: []}
    counts = hz.LayerCounts()
    exp_s = {e.id: 0.0 for e in ALL_EXPERIMENTS}
    snap0 = reg.snapshot()
    jobs_effective = 0.0
    first = None
    iterations = 0
    deadline = time.perf_counter() + seconds
    try:
        while iterations < 2 + traced or time.perf_counter() < deadline:
            # Traced runs alternate traced and untraced iterations; the
            # difference of their medians is the tracing overhead.
            tracer.enabled = traced and iterations % 2 == 1
            t_iter = time.perf_counter()
            with tracer.span("iteration"):
                with clock.timed("generate"):
                    with tracer.span("datagen.generate"):
                        ds = generate_dataset(config, jobs=jobs)
                    with tracer.span("io.colstore_save"):
                        save_dataset_npz(ds, npz)
                jobs_effective = reg.gauge("par.jobs").value
                out.attempted += 1
                for _ in range(ANSWERS):
                    # Every answer starts from the same heap: the previous
                    # answer's objects are freed here, not inside the timing.
                    loaded = ctx = renders = None
                    gc.collect()
                    if tracer.enabled:
                        before, stages0 = reg.snapshot(), hz.stage_walls(reg)
                    with clock.timed("answer"):
                        with tracer.span("io.colstore_load"):
                            loaded = load_dataset_npz(npz)
                        with tracer.span("core.context"):
                            ctx = AnalysisContext(loaded)
                        with tracer.span("experiments.battery"):
                            renders = [r.render() for r in run_all(ctx)]
                            if tracer.enabled:
                                stages1 = hz.stage_walls(reg)
                                hz.attach_view_builds(tracer, stages0, stages1)
                    out.attempted += 1
                    digests.add(hz.digest(renders))
                    if tracer.enabled:
                        counts.add(hz.Delta(before, reg.snapshot()))
                        hz.experiment_seconds(stages0, stages1, exp_s)
                if first is None:
                    first = (ds, loaded, renders)
            if iterations:  # the first unit warms the process up
                walls[tracer.enabled].append(time.perf_counter() - t_iter)
            iterations += 1
        tracer.enabled = False
        peak = hz.peak_rss_mb()

        # Correctness gates, outside every timed region.
        ds, loaded, renders = first
        out.gate("18 non-empty renders", len(renders) == 18 and all(r.strip() for r in renders),
                 f"{len(renders)} renders")
        evidence = check_no_spoofing(ds)
        out.gate("check_no_spoofing holds", not evidence.spoofing_plausible, repr(evidence))
        out.gate("colstore round trip is array-identical", ds.attack_columns_equal(loaded))
        out.gate("every battery of the run has one digest", len(digests) == 1,
                 ", ".join(sorted(digests)))
        out.digest = hz.digest(renders)
    finally:
        npz.unlink(missing_ok=True)

    answers = clock.cal["answer"]
    q = hz.tail_q(len(answers))
    out.end_to_end = {
        "setup_s": (clock.median("setup"), "s"),
        "answer_s": (clock.median("answer"), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    out.report = {
        "generate_s": (clock.median("generate"), "s"),
        **({f"answer_p{round(q * 100)}_s": (hz.percentile(answers, q), "s")} if q > 0.5 else {}),
        "error_rate": (out.failed / max(1, out.attempted), "ratio"),
        "setup_wall_s": (clock.raw_median("setup"), "s"),
        "generate_wall_s": (clock.raw_median("generate"), "s"),
        "answer_wall_s": (clock.raw_median("answer"), "s"),
    }
    out.samples = {"wall": clock.wall, "calibrated": clock.cal}
    out.inputs = {
        "scale": SCALE,
        "dataset_seed": config.seed,
        "attacks": int(ds.n_attacks),
        "iterations": iterations,
        "samples": {k: len(v) for k, v in clock.cal.items()},
    }
    if traced:
        n = len(walls[True])
        rows, total = tracer.rollup(n)
        n_answers = n * ANSWERS
        out.per_layer = {
            "datagen.generate_s": tracer.total("datagen.generate") / n,
            "io.colstore_save_s": tracer.total("io.colstore_save") / n,
            "io.colstore_load_s": tracer.total("io.colstore_load") / n_answers,
            **counts.per_layer(n_answers),
            "experiments.self_s": tracer.self_seconds("experiments.battery") / n_answers,
            **{f"experiments.{k}_s": v / n_answers for k, v in exp_s.items()},
            **hz.par_tasks(hz.Delta(snap0, reg.snapshot()), iterations),
            "par.jobs_effective": jobs_effective,
            "unattributed_s": rows["unattributed"],
            "trace.overhead_s": hz.median(walls[True]) - hz.median(walls[False]),
        }
        out.trace_rows = rows
        out.traced_total_s = total
    return out
