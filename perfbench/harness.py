"""Plumbing shared by the perfbench workloads.

* :class:`Tracer` — the benchmark's own spans around its calls into the
  program's layers, kept in memory and written once at the end;
* registry readers — deltas of the existing ``repro.obs`` registry
  snapshot (in-process, or the JSON of ``GET /v1/metrics``) and of its
  stage tree;
* :class:`Outcome` — what one workload run measured, gated and realized;
* :class:`Clock` — wall times scaled to a nominal machine speed;
* small statistics and machine helpers.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (work files, traces, result records) lives here.
OUT = ROOT / ".perfbench"

#: The program's layer for each span-name prefix the benchmark records.
LAYERS = (
    "datagen", "io", "core", "timeseries", "experiments", "par",
    "stream", "sketch", "serve",
)


# -- spans --------------------------------------------------------------


class Tracer:
    """Spans the benchmark records around its own calls.

    A span is ``{name, start, end, parent, run}``; ``parent`` is the
    index of the enclosing span.  :meth:`attach` adds a child measured
    by the program's own registry (e.g. view builds inside the battery)
    with a duration but no clock stamps.  A disabled tracer records
    nothing, so the untraced path is the same calls without spans.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def attach(self, name: str, seconds: float) -> None:
        """A registry-measured child of the innermost open span."""
        if self.enabled and seconds > 0:
            self.spans.append({
                "name": name,
                "seconds": seconds,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            })

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["seconds"] if "seconds" in rec else rec["end"] - rec["start"]

    def _child_sums(self) -> list[float]:
        sums = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                sums[rec["parent"]] += self.duration(rec)
        return sums

    def rollup(self, n_units: int) -> tuple[dict[str, float], float]:
        """Per-layer self time per unit of work, and the traced total.

        The roots are the benchmark's unit spans (one per iteration);
        their own self time is benchmark glue and lands in
        ``unattributed``.  Every other span's self time (duration minus
        its children) is billed to the layer its name starts with, so
        the rows sum to the traced total exactly.
        """
        child_sum = self._child_sums()
        rows = {layer: 0.0 for layer in LAYERS}
        rows["unattributed"] = 0.0
        total = 0.0
        for i, rec in enumerate(self.spans):
            own = self.duration(rec) - child_sum[i]
            if rec["parent"] is None:
                total += self.duration(rec)
                rows["unattributed"] += own
            else:
                rows[rec["name"].split(".", 1)[0]] += own
        n = max(1, n_units)
        return {k: v / n for k, v in rows.items()}, total / n

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        child_sum = self._child_sums()
        return sum(
            self.duration(rec) - child_sum[i]
            for i, rec in enumerate(self.spans)
            if rec["name"] == name
        )

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(r) for r in self.spans if r["name"] == name)


# -- registry readers ---------------------------------------------------


def _series(snap: dict, name: str, labels: dict) -> list[dict]:
    return [
        s for s in snap.get(name, [])
        if all(s["labels"].get(k) == v for k, v in labels.items())
    ]


def counter(snap: dict, name: str, **labels: str) -> float:
    """Sum of the matching counter (or gauge) series in a snapshot."""
    return sum(s["value"] for s in _series(snap, name, labels))


def hist(snap: dict, name: str, **labels: str) -> tuple[float, int]:
    """(sum, count) of the matching histogram series in a snapshot."""
    series = _series(snap, name, labels)
    return sum(s["sum"] for s in series), sum(s["count"] for s in series)


def label_values(snap: dict, name: str, label: str) -> set[str]:
    return {s["labels"][label] for s in snap.get(name, []) if label in s["labels"]}


class Delta:
    """The change of a registry snapshot between two readings."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before, self.after = before, after

    def counter(self, name: str, **labels: str) -> float:
        return counter(self.after, name, **labels) - counter(self.before, name, **labels)

    def hist_sum(self, name: str, **labels: str) -> float:
        return hist(self.after, name, **labels)[0] - hist(self.before, name, **labels)[0]

    def hist_count(self, name: str, **labels: str) -> int:
        return hist(self.after, name, **labels)[1] - hist(self.before, name, **labels)[1]


class LayerCounts:
    """Running totals of the registry deltas behind the per-layer metrics."""

    def __init__(self) -> None:
        self.t: dict[str, float] = {}

    def _add(self, key: str, value: float) -> None:
        self.t[key] = self.t.get(key, 0.0) + value

    def add(self, d: Delta) -> None:
        build = "context.view.build_seconds"
        self._add("view_s", d.hist_sum(build))
        self._add("scan_s", d.hist_sum(build, view="collaborations")
                  + d.hist_sum(build, view="chains"))
        self._add("forecast_s", d.hist_sum(build, view="dispersion_forecast"))
        self._add("builds", d.counter("context.view.miss"))
        self._add("hits", d.counter("context.view.hit"))
        for name in ("levels", "reused", "stitched_targets"):
            self._add(name, d.counter(f"shard.merge.{name}"))

    def per_layer(self, n: int) -> dict[str, float]:
        """The ``core.*``, ``timeseries.*`` and ``shard.*`` metrics per unit."""
        t = self.t
        lookups = t["hits"] + t["builds"]
        return {
            "core.view_build_s": t["view_s"] / n,
            "core.scan_s": t["scan_s"] / n,
            "timeseries.forecast_s": t["forecast_s"] / n,
            "core.view_builds": t["builds"] / n,
            "core.view_hit_ratio": t["hits"] / lookups if lookups else 0.0,
            "shard.merge.levels": t["levels"] / n,
            "shard.merge.reused": t["reused"] / n,
            "shard.merge.stitched_targets": t["stitched_targets"] / n,
        }


def par_tasks(d: Delta, n: int) -> dict[str, float]:
    """``par.tasks`` per unit, one metric per phase label."""
    return {
        f"par.tasks.{phase}": d.counter("par.tasks", phase=phase) / n
        for phase in label_values(d.after, "par.tasks", "phase")
    }


def experiment_seconds(before: dict, after: dict, totals: dict[str, float]) -> None:
    """Add each experiment's ``experiments/<id>`` stage time to ``totals``."""
    for exp_id in totals:
        key = ("experiments", exp_id)
        totals[exp_id] += after.get(key, 0.0) - before.get(key, 0.0)


def stage_walls(reg) -> dict[tuple, float]:
    """The in-process stage tree flattened to ``{path: wall seconds}``."""
    out: dict[tuple, float] = {}

    def walk(node, path: tuple) -> None:
        for child in list(node.children.values()):
            p = path + (child.name,)
            out[p] = child.wall_seconds
            walk(child, p)

    walk(reg.stage_tree(), ())
    return out


def view_self_seconds(before: dict, after: dict) -> dict[str, float]:
    """Self time of the ``view:<kind>`` stages built between two readings.

    Views build inside other views (a forecast reads the snapshot
    dispersions), so self time — not the build histogram — is what
    partitions the interval without double counting.
    """
    delta = {p: after[p] - before.get(p, 0.0) for p in after}
    out: dict[str, float] = {}
    for path, wall in delta.items():
        if not path[-1].startswith("view:") or wall <= 0:
            continue
        children = sum(
            w for p, w in delta.items()
            if len(p) == len(path) + 1 and p[:-1] == path and p[-1].startswith("view:")
        )
        kind = path[-1][len("view:"):]
        out[kind] = out.get(kind, 0.0) + wall - children
    return out


def attach_view_builds(tracer: Tracer, before: dict, after: dict) -> None:
    """Bill the battery's view builds to their layers under the open span."""
    for kind, seconds in view_self_seconds(before, after).items():
        layer = "timeseries" if kind == "dispersion_forecast" else "core"
        tracer.attach(f"{layer}.view.{kind}", seconds)


# -- outcome ------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured, checked and realized."""

    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific figures printed beside the gated metrics.
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: Traced runs: per-layer self time per unit, and the traced unit wall.
    trace_rows: dict[str, float] = field(default_factory=dict)
    traced_total_s: float = 0.0
    #: Every timed sample, wall and calibrated, for the run record.
    samples: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: The first few failed operations, for the run record.
    errors: list[str] = field(default_factory=list)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.gates)


# -- calibrated time ----------------------------------------------------

#: Wall time of :func:`reference_seconds` on an idle 2-CPU x86-64 box.
REF_NOMINAL_S = 0.016
_REF_DATA = np.random.default_rng(0).random(100_000)


def reference_seconds() -> float:
    """Median wall time of three runs of a fixed Python + numpy kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        np.sort(_REF_DATA)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reference_helper() -> None:
    """Helper process: time the kernel for each line read, until end of input."""
    for _ in sys.stdin:
        print(reference_seconds(), flush=True)


class Clock:
    """Times blocks in wall seconds and in calibrated seconds.

    A shared virtual machine changes speed by up to ~1.5x over seconds
    as its neighbours' load comes and goes, which no amount of
    repetition inside one short run averages out.  Each timed block is bracketed by the
    reference kernel, and its calibrated time is
    ``wall * REF_NOMINAL_S / mean(reference before, after)``: the
    seconds the block would take on a machine where the kernel takes
    ``REF_NOMINAL_S``.  The reference is the benchmark's own code, so a
    change to the program moves the wall time but not the reference.

    With ``cpus > 1`` the kernel runs on that many CPUs at once (here and
    in helper processes) and the reference is the mean, because the
    workloads fan out over ``repro.par`` workers.  :meth:`close` stops
    the helpers.
    """

    def __init__(self, cpus: int = 1) -> None:
        self.wall: dict[str, list[float]] = {}
        self.cal: dict[str, list[float]] = {}
        self._last: tuple[float, float] | None = None  # (measured at, seconds)
        # Plain child processes the benchmark waits for: multiprocessing's
        # spawn start method would also leave its resource tracker running.
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(cpus - 1):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve())],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the helpers and wait until each has ended."""
        for proc in self._helpers:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._helpers = []

    def reference(self) -> float:
        """The kernel's current time (reused when measured just now)."""
        if self._last is None or time.perf_counter() - self._last[0] > 0.05:
            for proc in self._helpers:
                proc.stdin.write("\n")
                proc.stdin.flush()
            times = [reference_seconds()] + [
                float(proc.stdout.readline()) for proc in self._helpers
            ]
            self._last = (time.perf_counter(), sum(times) / len(times))
        return self._last[1]

    def add(self, name: str, wall: float, ref_before: float, ref_after: float) -> None:
        self.wall.setdefault(name, []).append(wall)
        self.cal.setdefault(name, []).append(
            wall * REF_NOMINAL_S / ((ref_before + ref_after) / 2))

    @contextmanager
    def timed(self, name: str):
        before = self.reference()
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        self.add(name, wall, before, self.reference())

    def combine(self, name: str, parts: list[str]) -> None:
        """Record the sum of the latest sample of each part as ``name``.

        A long block is timed as shorter parts so that each part's
        reference brackets sit close to the work they calibrate.
        """
        self.wall.setdefault(name, []).append(sum(self.wall[p][-1] for p in parts))
        self.cal.setdefault(name, []).append(sum(self.cal[p][-1] for p in parts))

    def median(self, name: str) -> float:
        return median(self.cal[name])

    def raw_median(self, name: str) -> float:
        return median(self.wall[name])


# -- statistics ---------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(len(ordered) * q)), len(ordered))
    return float(ordered[rank - 1])


def tail_q(n: int) -> float:
    """The highest of p90/p99 with at least ten samples beyond it."""
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def digest(renders: list[str]) -> str:
    h = hashlib.sha256()
    for text in renders:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- machine ------------------------------------------------------------


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def time_imports(clock: Clock, modules: list[str], repeats: int = 3) -> None:
    """Time a fresh interpreter importing ``modules`` as ``setup`` samples."""
    code = "import " + ", ".join(modules)
    for _ in range(repeats):
        with clock.timed("setup"):
            subprocess.run(
                [sys.executable, "-c", code], env=repro_env(), cwd=ROOT, check=True
            )


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children (par workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def machine_manifest(jobs: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "par_jobs_effective": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    _reference_helper()
