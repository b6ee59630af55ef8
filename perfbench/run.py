"""One benchmark for the whole chain: ``paper``, ``scaleout`` and ``serve``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Every input is derived from ``--seed``.  Each workload repeats its unit
of work until ``--seconds`` are spent, checks its outputs (a failed gate
makes the run exit 1, and its timings are not to be accepted), prints
every metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from spans the benchmark
records around its own calls into each layer plus deltas of the
program's ``repro.obs`` registry.  A per-layer metric of a layer the
workload bypasses reads 0.  The full record of a run (inputs, machine
manifest, gates, the per-layer rollup and the raw spans) is written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import harness as hz

WORKLOADS = ("paper", "scaleout", "serve")


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (hz.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {hz.SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(hz.SRC))
    import repro

    if hz.SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {hz.SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = hz.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    _load_program()
    hz.OUT.mkdir(exist_ok=True)

    import importlib

    workload = importlib.import_module(args.workload)
    jobs = min(2, os.cpu_count() or 1)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = hz.Tracer(run_id)
    clock = hz.Clock(cpus=jobs)
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), tracer, clock, jobs)
    finally:
        clock.close()

    manifest = hz.machine_manifest(jobs)
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} digest={out.digest}")
    for name, (value, unit) in {**out.end_to_end, **out.report}.items():
        print(f"  {name:<28s} {value:14.6f} {unit}")
    for name, ok, detail in out.gates:
        print(f"  gate {'PASS' if ok else 'FAIL'}: {name}"
              + (f" ({detail})" if detail and not ok else ""))
    for line in out.errors:
        print(f"  failed: {line}")
    print(f"  inputs   {json.dumps(out.inputs, sort_keys=True)}")
    print(f"  machine  {json.dumps(manifest, sort_keys=True)}")

    if args.trace:
        rows = out.trace_rows
        print(f"  traced unit wall {out.traced_total_s:.6f} s = per-layer self time:")
        for layer, seconds in rows.items():
            if seconds:
                print(f"    {layer:<14s} {seconds:12.6f} s")
        print(f"    {'sum':<14s} {sum(rows.values()):12.6f} s")
        print(f"  tracing overhead (traced - untraced unit wall): "
              f"{out.per_layer['trace.overhead_s']:.6f} s")
        print("  note: time inside repro.par worker processes is blind (no "
              "worker telemetry yet); it is billed to the span that waited on it")
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        if args.trace:
            value = out.per_layer.get(m["name"], 0.0)
        else:
            value = out.end_to_end[m["name"]][0]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    record = {
        "run": run_id,
        "seed": args.seed,
        "correct": out.correct,
        "digest": out.digest,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in out.end_to_end.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in out.report.items()},
        "per_layer": out.per_layer,
        "trace_rows": out.trace_rows,
        "traced_total_s": out.traced_total_s,
        "samples": out.samples,
        "errors": out.errors,
        "gates": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.gates],
        "inputs": out.inputs,
        "machine": manifest,
        "spans": tracer.spans,
    }
    (hz.OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
