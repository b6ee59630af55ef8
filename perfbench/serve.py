"""The ``serve`` workload: a ``ddos-repro serve`` subprocess, closed loop.

The records are a generated dataset derived from the seed, sent as
``BATCH``-record batches; one batch in ten (seed-chosen) is sent after
its successor, which drives the stream's stable-merge path.  Each round
ingests every batch into a fresh tenant over two keep-alive connections:

* connection 1 POSTs a batch with ``wait=1`` and, after the ack, GETs
  that epoch's ``/v1/experiments`` (a fresh answer);
* connection 2 loops ``/v1/snapshot``, ``/v1/experiments/{id}`` and
  ``/v1/sketch`` reads until connection 1 is done.

Rounds repeat until the run's seconds are spent.  The final epoch's
served battery must equal a local ``api.stream`` replay of the same
batches in the same arrival order.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time

import numpy as np

import harness as hz

SCALE = 0.1
BATCH = 500
LATE_SHARE = 0.1
SERVER_STARTS = 3
QUERY_ROUTES = ("snapshot", "experiment", "sketch")


class Client:
    """One keep-alive HTTP connection that times every request."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None):
        t0 = time.perf_counter()
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"} if body else {})
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0

    def close(self) -> None:
        self.conn.close()


def start_server(log) -> tuple[subprocess.Popen, int]:
    """Spawn the service and wait for a healthy reply; returns (process, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--max-seconds", "170"],
        stdout=subprocess.PIPE, stderr=log, text=True, env=hz.repro_env(), cwd=hz.ROOT,
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        client = Client(port)
        status, _, _ = client.call("GET", "/v1/healthz")
        client.close()
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
    except BaseException:
        stop_server(proc)
        raise
    return proc, port


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def arrival_order(n: int, rng: np.random.Generator) -> list[int]:
    """Batch indices in send order: ``LATE_SHARE`` of them swap with their successor."""
    order = list(range(n))
    taken: set[int] = set()
    for i in rng.permutation(n - 1):
        if len(taken) >= round(n * LATE_SHARE):
            break
        if not taken & {i - 1, i, i + 1}:
            taken.add(int(i))
    for i in sorted(taken):
        order[i], order[i + 1] = order[i + 1], order[i]
    return order


def metrics(client: Client) -> dict:
    status, data, _ = client.call("GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    return json.loads(data)


def run(seed: int, seconds: float, traced: bool, tracer: hz.Tracer, clock: hz.Clock,
        jobs: int) -> hz.Outcome:
    from repro import api
    from repro.datagen.config import DatasetConfig
    from repro.datagen.generator import generate_dataset
    from repro.experiments.registry import ALL_EXPERIMENTS
    from repro.serve.codec import record_to_json

    out = hz.Outcome()
    data_seed, order_seed = np.random.SeedSequence([seed, 3]).generate_state(2)
    config = DatasetConfig(seed=int(data_seed), scale=SCALE)
    ds = generate_dataset(config, jobs=jobs)
    records = list(ds.iter_attacks())
    batches = [records[i:i + BATCH] for i in range(0, len(records), BATCH)]
    order = arrival_order(len(batches), np.random.default_rng(int(order_seed)))
    bodies = [
        json.dumps({"records": [record_to_json(r) for r in batches[k]]}).encode()
        for k in order
    ]
    exp_ids = [e.id for e in ALL_EXPERIMENTS]

    log = open(hz.OUT / f"serve-{seed}.log", "w")
    procs = []
    try:
        for _ in range(SERVER_STARTS):
            if procs:
                stop_server(procs.pop())
            with clock.timed("setup"):
                proc, port = start_server(log)
            procs.append(proc)
        result = _drive(port, proc.pid, bodies, exp_ids, seconds, clock, tracer, traced, out)
    finally:
        for proc in procs:
            stop_server(proc)
        log.close()

    # Correctness gate, outside every timed region: a local stream fed
    # the same batches in the same arrival order.
    stream = api.stream()
    for k in order:
        stream.append_batch(batches[k])
    local = [(r.experiment_id, r.render()) for r in api.run_all(stream.context())]
    for rnd, served in enumerate(result["finals"]):
        out.gate(f"round {rnd}: final epoch battery equals the local stream replay",
                 served == local)
    out.digest = hz.digest([text for _, text in local])
    out.errors = result["failures"][:20]

    fresh, acks, queries = result["fresh"], result["acks"], result["queries"]
    n_records = len(records)
    q_fresh, q_query = hz.tail_q(len(fresh)), hz.tail_q(len(queries))
    # answer_s scales only the server's share to nominal speed (see
    # _drive); the reported latencies are wall time.
    out.end_to_end = {
        "setup_s": (clock.median("setup"), "s"),
        "answer_s": (hz.median(result["fresh_cal"]), "s"),
        "peak_rss_mb": (result["peak"], "MB"),
    }
    out.report = {
        "ingest_records_per_s": (n_records * result["rounds"] / sum(acks), "1/s"),
        "fresh_answer_p50_ms": (1e3 * hz.median(fresh), "ms"),
        f"fresh_answer_p{round(q_fresh * 100)}_ms": (1e3 * hz.percentile(fresh, q_fresh), "ms"),
        "query_p50_ms": (1e3 * hz.median(queries), "ms"),
        f"query_p{round(q_query * 100)}_ms": (1e3 * hz.percentile(queries, q_query), "ms"),
        "error_rate": (out.failed / max(1, out.attempted), "ratio"),
    }
    out.samples = {"wall": clock.wall, "calibrated": clock.cal}
    out.inputs = {
        "dataset_seed": int(data_seed),
        "order_seed": int(order_seed),
        "scale": SCALE,
        "attacks": n_records,
        "batch_records": BATCH,
        "batches": len(batches),
        "late_batches": sum(1 for i, k in enumerate(order) if k != i) // 2,
        "out_of_order_share": result["out_of_order"] / (len(batches) * result["rounds"]),
        "rounds": result["rounds"],
        "requests_per_route": result["per_route"],
        "samples": {"fresh_answer": len(fresh), "query": len(queries),
                    **{k: len(v) for k, v in clock.cal.items()}},
    }
    return out


def _drive(port, pid, bodies, exp_ids, seconds, clock, tracer, traced, out) -> dict:
    """Run closed-loop rounds until ``seconds`` are spent.

    A fresh answer is mostly waiting: two delayed-ACK stalls of ~40 ms
    (see NOTES.md) plus the server's work.  Only the server's share of
    a round — its ``serve.request_seconds`` for connection 1 — is
    scaled to nominal machine speed for ``answer_s``; the rest stays
    wall time.
    """
    admin = Client(port)
    start_snap = metrics(admin)
    fresh, fresh_cal, acks, renders, queries = [], [], [], [], []
    peak = 0.0
    ack_first, ack_last = [], []
    per_route = dict.fromkeys(("ingest", "experiments") + QUERY_ROUTES, 0)
    client_s = dict.fromkeys(per_route, 0.0)
    client_n = dict.fromkeys(per_route, 0)
    finals = []
    failures: list[str] = []
    walls = {True: [], False: []}
    layer = dict.fromkeys(
        ("stream", "serve", "transport", "unattributed", "round"), 0.0)
    traced_stats: dict[str, float] = {}
    counts = hz.LayerCounts()
    battery_epochs: set[tuple[str, int]] = set()
    battery_lookups = 0
    lock = threading.Lock()
    decile = max(1, len(bodies) // 10)
    rnd = 0
    deadline = time.perf_counter() + seconds

    def record(route: str, status: int, data: bytes, elapsed: float, on: bool) -> None:
        with lock:
            out.attempted += 1
            per_route[route] += 1
            if not 200 <= status < 300:
                out.failed += 1
                failures.append(f"{route} {status} {data[:160]!r}")
            if on:
                client_s[route] += elapsed
                client_n[route] += 1

    while rnd < 2 + traced or time.perf_counter() < deadline:
        on = traced and rnd % 2 == 1
        tracer.enabled = on
        tenant = f"bench{rnd}"
        before = metrics(admin)
        ref_before = clock.reference()
        n_fresh = len(fresh)
        c1, c2 = Client(port), Client(port)
        first_ack = threading.Event()
        done = threading.Event()
        seen = []
        c1_seconds = 0.0  # connection 1's request time this round

        def reader() -> None:
            first_ack.wait()
            i = 0
            while not done.is_set():
                route = QUERY_ROUTES[i % len(QUERY_ROUTES)]
                path = {
                    "snapshot": f"/v1/snapshot?tenant={tenant}",
                    "experiment": f"/v1/experiments/{exp_ids[i % len(exp_ids)]}?tenant={tenant}",
                    "sketch": f"/v1/sketch?tenant={tenant}",
                }[route]
                status, data, elapsed = c2.call("GET", path)
                record(route, status, data, elapsed, on)
                if status == 200:
                    queries.append(elapsed)
                if route == "experiment" and status == 200:
                    seen.append(json.loads(data)["epoch"])
                i += 1

        thread = threading.Thread(target=reader)
        thread.start()
        t_round = time.perf_counter()
        try:
            with tracer.span("round"):
                for j, body in enumerate(bodies):
                    t0 = time.perf_counter()
                    with tracer.span("serve.ingest"):
                        status, data, ack = c1.call(
                            "POST", f"/v1/ingest?tenant={tenant}&wait=1", body)
                    record("ingest", status, data, ack, on)
                    c1_seconds += ack
                    first_ack.set()
                    if status != 200:
                        continue
                    acks.append(ack)
                    if j < decile:
                        ack_first.append(ack)
                    elif j >= len(bodies) - decile:
                        ack_last.append(ack)
                    epoch = json.loads(data)["epoch"]
                    with tracer.span("serve.experiments"):
                        status, data, render = c1.call(
                            "GET", f"/v1/experiments?tenant={tenant}&epoch={epoch}")
                    record("experiments", status, data, render, on)
                    c1_seconds += render
                    if status != 200:
                        continue  # counted as failed, not as a latency sample
                    fresh.append(time.perf_counter() - t0)
                    renders.append(render)
                    battery_epochs.add((tenant, epoch))
                    battery_lookups += 1
                finals.append(
                    [(e["id"], e["render"]) for e in json.loads(data)["experiments"]]
                    if status == 200 else None
                )
        finally:
            first_ack.set()
            done.set()
            thread.join()
            c1.close()
            c2.close()
        wall = time.perf_counter() - t_round
        if rnd:  # the first round warms the server up
            walls[on].append(wall)
        else:  # the server holding one tenant's whole stream
            peak = hz.process_peak_rss_mb(pid)
        battery_epochs.update((tenant, e) for e in seen)
        battery_lookups += len(seen)
        d = hz.Delta(before, metrics(admin))
        speed = hz.REF_NOMINAL_S / ((ref_before + clock.reference()) / 2)
        server = (d.hist_sum("serve.request_seconds", route="ingest")
                  + d.hist_sum("serve.request_seconds", route="experiments"))
        samples = fresh[n_fresh:]
        if samples:
            scale = 1 - server * (1 - speed) / sum(samples)
            fresh_cal.extend(f * scale for f in samples)
        if on:
            _accumulate(d, traced_stats, layer, c1_seconds, wall)
            counts.add(d)
        rnd += 1
    tracer.enabled = False
    whole = hz.Delta(start_snap, metrics(admin))
    admin.close()
    out.attempted += 2 * rnd + 2  # the metrics reads
    n_out = whole.counter("stream.batches", in_order="false")

    if traced:
        n = len(walls[True])
        server_n = dict.fromkeys(per_route, 0)
        server_s = dict.fromkeys(per_route, 0.0)
        for route in per_route:
            server_s[route] = traced_stats.get(f"req_s.{route}", 0.0)
            server_n[route] = traced_stats.get(f"req_n.{route}", 0)
        carried = traced_stats["views_carried"]
        invalidated = traced_stats["views_invalidated"]
        out.per_layer = {
            "stream.append_s": traced_stats["append_s"] / n,
            "stream.carry_s": traced_stats["carry_s"] / n,
            "stream.views_carried": carried / n,
            "stream.views_invalidated": invalidated / n,
            "stream.carry_ratio": carried / (carried + invalidated) if carried + invalidated else 0.0,
            "stream.batches_out_of_order": n_out / rnd,
            "sketch.updates": traced_stats["sketch_updates"] / n,
            **counts.per_layer(n),
            "par.tasks.prewarm": traced_stats["prewarm_tasks"] / n,
            "par.jobs_effective": hz.counter(whole.after, "par.jobs"),
            "serve.ack_p50_ms": 1e3 * hz.median(acks),
            "serve.ack_first_decile_ms": 1e3 * hz.median(ack_first),
            "serve.ack_last_decile_ms": 1e3 * hz.median(ack_last),
            "serve.render_p50_ms": 1e3 * hz.median(renders),
            "serve.render_cache_hit_ratio": 1 - len(battery_epochs) / battery_lookups,
            **{f"serve.transport_ms.{r}": 1e3 * (client_s[r] / client_n[r] - server_s[r] / server_n[r])
               for r in per_route if client_n[r] and server_n[r]},
            "serve.rejected": whole.counter("serve.ingest.rejected"),
            "unattributed_s": layer["unattributed"] / n,
            "trace.overhead_s": hz.median(walls[True]) - hz.median(walls[False]),
        }
        # Transport is the serve layer's HTTP hop; it gets its own row.
        out.trace_rows = {
            k: layer[k] / n for k in ("stream", "serve", "transport", "unattributed")
        }
        out.traced_total_s = layer["round"] / n
    return {
        "fresh": fresh, "fresh_cal": fresh_cal, "peak": peak, "acks": acks, "queries": queries, "finals": finals,
        "rounds": rnd, "per_route": per_route, "out_of_order": n_out,
        "failures": failures,
    }


def _accumulate(d: hz.Delta, stats: dict, layer: dict, client: float, wall: float) -> None:
    """Fold one traced round's server-side deltas into the running totals.

    Connection 1's round wall splits exactly into: the stream fold and
    view carry inside its acked POSTs (server histograms), the rest of
    the server time of its requests, transport (client minus server
    time of its requests) and benchmark glue between requests.
    """
    def add(key: str, value: float) -> None:
        stats[key] = stats.get(key, 0.0) + value

    for route in ("ingest", "experiments") + QUERY_ROUTES:
        add(f"req_s.{route}", d.hist_sum("serve.request_seconds", route=route))
        add(f"req_n.{route}", d.hist_count("serve.request_seconds", route=route))
    append = d.hist_sum("stream.append_seconds")
    carry = d.hist_sum("stream.carry_seconds")
    add("append_s", append)
    add("carry_s", carry)
    add("views_carried", d.counter("stream.views_carried"))
    add("views_invalidated", d.counter("stream.views_invalidated"))
    add("sketch_updates", d.counter("sketch.updates"))
    add("prewarm_tasks", d.counter("par.tasks", phase="prewarm"))

    server = (d.hist_sum("serve.request_seconds", route="ingest")
              + d.hist_sum("serve.request_seconds", route="experiments"))
    layer["stream"] += append + carry
    layer["serve"] += server - append - carry
    layer["transport"] += client - server
    layer["unattributed"] += wall - client
    layer["round"] += wall
