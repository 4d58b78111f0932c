#!/usr/bin/env python
"""Serve-layer load benchmark: thousands of synthetic clients against
one in-process ``st2-serve`` application.

The load has two deliberate shapes:

* a **warm torrent** — every client hammers the same fully-cached
  grid, measuring pure service latency (HTTP + scheduling + cache),
  which is where p50/p99 live;
* periodic **bursts** — all clients submit the *same uncached* spec at
  the same phase, so its units are in flight exactly once and every
  duplicate must coalesce.  Across the whole run each distinct unit
  may execute at most once (``redundant_executions`` pins 0).

The run writes a ``metrics.json`` (snapshot of the server registry
plus the latency percentiles in ``meta``) and — with
``--write-baseline`` — regenerates ``BENCH_serve.json``: latency and
throughput gates with ``--factor`` headroom, plus the hard
correctness pins (dedupe ratio >= 0.9, zero redundant executions,
zero failed jobs) that hold at any load size.  The CI ``serve-smoke``
job replays a smaller load and checks it with ``st2-stats check``
against the committed baseline.

Usage::

    python benchmarks/bench_serve.py                       # report only
    python benchmarks/bench_serve.py --write-baseline      # regen pins
    python benchmarks/bench_serve.py --jobs 300 --clients 30 \\
        --metrics-out serve-load.metrics.json              # CI shape
"""

from __future__ import annotations

import argparse
import asyncio
import json
import tempfile
import threading
import time
from pathlib import Path

from repro import obs
from repro.api import JobSpec
from repro.obs.metrics import BASELINE_VERSION, write_metrics
from repro.runner.cache import ResultCache
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.sim.trace_store import TraceStore

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_serve.json"

#: The cheap pinned grid every client replays (4 units).
GRID_KERNELS = ("qrng_K2", "sortNets_K2")
GRID_CONFIGS = ("st2", "valhalla")
GRID_SCALE = 0.25

#: Every BURST_EVERY-th job per client is an uncached burst spec; the
#: burst seed cycles so the whole run captures N_BURST_SEEDS fresh
#: functional executions and nothing more.
BURST_EVERY = 10
N_BURST_SEEDS = 4


def _grid_spec(seed: int) -> JobSpec:
    return JobSpec(kernels=GRID_KERNELS, configs=GRID_CONFIGS,
                   scale=GRID_SCALE, seed=seed, aux=False)


class _Server:
    """A ServeApp on a private event-loop thread.

    A start-up failure is re-raised from ``__enter__`` as soon as it
    happens; leaving the block drains the app, so the shard processes
    are joined before ``__exit__`` returns.
    """

    def __init__(self, workers: int, root: Path):
        self.app = ServeApp(shards=workers,
                            trace_store=TraceStore(root / "traces"),
                            cache=ResultCache(root / "cache"),
                            registry=obs.Obs())
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def go():
            try:
                await self.app.start()
            except BaseException as exc:    # re-raised by __enter__
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            await self.app.serve_forever()

        try:
            self.loop.run_until_complete(go())
        finally:
            self.loop.close()

    def __enter__(self) -> "_Server":
        self._thread.start()
        if not self._ready.wait(timeout=300):
            raise RuntimeError("server failed to start")
        if self._startup_error is not None:
            self._thread.join(timeout=30)
            raise self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(
            self.app.drain(), self.loop).result(timeout=120)
        self._thread.join(timeout=30)

    @property
    def address(self) -> str:
        return self.app.server.address


def _burst_seed(k: int):
    """The burst seed for a client's k-th job, or None on warm jobs."""
    if k % BURST_EVERY == 0:
        return 1000 + (k // BURST_EVERY) % N_BURST_SEEDS
    return None


def _client_loop(address: str, ident: int, n_jobs: int,
                 warm_latencies, burst_latencies, failures) -> None:
    with ServeClient(address, client=f"bench-{ident}",
                     timeout=600.0) as sc:
        for k in range(n_jobs):
            seed = _burst_seed(k)
            t0 = time.monotonic()
            status = sc.submit_retry(_grid_spec(seed or 0),
                                     deadline_s=600.0)
            final = sc.wait(status.job_id, timeout=600.0)
            dt = time.monotonic() - t0
            # warm jobs measure service latency; bursts carry real
            # simulation wall and are scored on dedupe instead
            (burst_latencies if seed is not None
             else warm_latencies).append(dt)
            if final.state != "done":
                failures.append(final)


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_load(jobs: int, clients: int, workers: int) -> dict:
    """Drive the load and return the measurement dict."""
    per_client = max(1, jobs // clients)
    jobs = per_client * clients
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        with _Server(workers, Path(tmp)) as server:
            # warm only the torrent spec: the burst seeds stay cold so
            # their duplicates genuinely race in flight and coalesce
            with ServeClient(server.address, client="warmup") as sc:
                status = sc.submit(_grid_spec(0))
                sc.wait(status.job_id, timeout=600.0)

            warm_latencies, burst_latencies, failures = [], [], []
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(server.address, i, per_client,
                          warm_latencies, burst_latencies, failures))
                for i in range(clients)]
            t0 = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.monotonic() - t0
            snapshot = server.app.registry.snapshot()

    counters = snapshot["counters"]
    n_units = len(GRID_KERNELS) * len(GRID_CONFIGS)
    burst_seeds = {_burst_seed(k) for k in range(per_client)}
    burst_seeds.discard(None)
    distinct_units = n_units * (1 + len(burst_seeds))
    submitted = counters.get("serve.units.submitted", 0)
    executed = counters.get("serve.units.executed", 0)
    duplicates = submitted - distinct_units
    redundant = executed - distinct_units
    warm_latencies.sort()
    burst_latencies.sort()
    return {
        "snapshot": snapshot,
        "meta": {
            "tool": "bench-serve",
            "jobs": jobs,
            "clients": clients,
            "workers": workers,
            "units_per_job": n_units,
            "elapsed_s": elapsed,
            "p50_s": _percentile(warm_latencies, 0.50),
            "p99_s": _percentile(warm_latencies, 0.99),
            "max_s": warm_latencies[-1] if warm_latencies else 0.0,
            "burst_p99_s": _percentile(burst_latencies, 0.99),
            "throughput_jobs_per_s": jobs / elapsed,
            "distinct_units": distinct_units,
            "duplicates": duplicates,
            "redundant_executions": redundant,
            "coalesce_dedupe_ratio":
                1.0 - redundant / duplicates if duplicates else 1.0,
            "coalesce_hits": counters.get("serve.coalesce.hit", 0),
            "cache_hits": counters.get("serve.units.cache_hits", 0),
            "jobs_failed": len(failures),
        },
    }


def build_baseline(meta: dict, factor: float) -> dict:
    description = (
        f"serve-layer load baseline: {meta['jobs']} jobs from "
        f"{meta['clients']} concurrent clients over the "
        f"{'x'.join(GRID_KERNELS)} / {'x'.join(GRID_CONFIGS)} grid at "
        f"scale {GRID_SCALE} ({BURST_EVERY - 1} warm jobs per uncached "
        f"burst); latency/throughput gates carry {factor}x headroom; "
        f"regenerate with benchmarks/bench_serve.py --write-baseline")
    return {
        "bench_version": BASELINE_VERSION,
        "description": description,
        "load": {k: meta[k] for k in
                 ("jobs", "clients", "workers", "units_per_job",
                  "p50_s", "p99_s", "throughput_jobs_per_s",
                  "coalesce_dedupe_ratio")},
        "metrics": [
            # perf gates, headroom-banded (hold at smaller loads too)
            {"metric": "meta.p50_s",
             "max": round(meta["p50_s"] * factor, 4)},
            {"metric": "meta.p99_s",
             "max": round(meta["p99_s"] * factor, 4)},
            {"metric": "meta.throughput_jobs_per_s",
             "min": round(meta["throughput_jobs_per_s"] / factor, 2)},
            # hard correctness pins, load-size independent
            {"metric": "meta.coalesce_dedupe_ratio", "min": 0.9},
            {"metric": "meta.redundant_executions", "max": 0},
            {"metric": "meta.jobs_failed", "max": 0},
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-test the serve layer and (optionally) "
                    "regenerate BENCH_serve.json.")
    parser.add_argument("--jobs", type=int, default=2000,
                        help="total jobs across all clients "
                             "(default %(default)s)")
    parser.add_argument("--clients", type=int, default=200,
                        help="concurrent synthetic clients "
                             "(default %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="server worker shards (default 2)")
    parser.add_argument("--factor", type=float, default=5.0,
                        help="headroom factor on latency/throughput "
                             "gates (default %(default)s)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the load's metrics.json here")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"rewrite {DEFAULT_BASELINE.name} from "
                             f"this run")
    parser.add_argument("--out", metavar="PATH",
                        default=str(DEFAULT_BASELINE),
                        help="baseline path (default %(default)s)")
    args = parser.parse_args(argv)

    measured = run_load(args.jobs, args.clients, args.workers)
    meta = measured["meta"]
    print(f"{meta['jobs']} jobs / {meta['clients']} clients in "
          f"{meta['elapsed_s']:.2f}s: "
          f"p50 {meta['p50_s'] * 1e3:.1f}ms, "
          f"p99 {meta['p99_s'] * 1e3:.1f}ms, "
          f"{meta['throughput_jobs_per_s']:.1f} jobs/s")
    print(f"dedupe: {meta['duplicates']} duplicate units, "
          f"{meta['coalesce_hits']} coalesced, "
          f"{meta['cache_hits']} cache hits, "
          f"{meta['redundant_executions']} redundant executions "
          f"(ratio {meta['coalesce_dedupe_ratio']:.3f})")

    if args.metrics_out:
        path = write_metrics(args.metrics_out, measured["snapshot"],
                             meta=meta)
        print(f"metrics written to {path}")
    if args.write_baseline:
        payload = build_baseline(meta, args.factor)
        Path(args.out).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {args.out}")

    if meta["jobs_failed"] or meta["redundant_executions"] > 0:
        return 1
    if meta["coalesce_dedupe_ratio"] < 0.9:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
