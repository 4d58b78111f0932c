#!/usr/bin/env python
"""Trace-driven workflow: capture once, explore many times.

Design-space sweeps re-analyse the same execution over and over; this
example captures a kernel's trace once into the content-addressed
trace store behind ``st2-run --trace-store`` and shows that every study
reproduces bit-for-bit from it — the same decoupling GPGPU-Sim users
get from PTX trace files.  Store entries are raw per-column ``.npy``
files opened as read-only memory maps, so any number of processes share
one copy via the OS page cache.

Run:  python examples/trace_workflow.py
"""

import tempfile
import time
from pathlib import Path

from repro.core.predictors import run_speculation
from repro.core.speculation import DESIGN_LADDER, ST2_DESIGN
from repro.kernels.suite import spec_by_name
from repro.sim.trace_store import TraceStore


def main() -> None:
    # -- capture -----------------------------------------------------------
    t0 = time.time()
    run = spec_by_name("msort_K2").run(scale=1.0, seed=0)
    capture_s = time.time() - t0
    print(f"captured msort_K2: {len(run.trace):,} adder ops in "
          f"{capture_s:.2f}s")

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(Path(tmp) / "traces")
        key = store.put_run(run, code_version="example", scale=1.0,
                            seed=0)
        print(f"persisted as store entry {key[:12]}: "
              f"{store.nbytes(key) / 1024:.0f} kB on disk")

        # -- reload and re-analyse ----------------------------------------
        stored = store.get(key)       # read-only memmaps, zero-copy
        print(f"reloaded: kernel={stored.name} "
              f"({stored.n_static_pcs} static PCs)")

        t0 = time.time()
        fresh = run_speculation(run.trace, ST2_DESIGN)
        loaded = run_speculation(stored.trace, ST2_DESIGN)
        assert fresh.thread_misprediction_rate \
            == loaded.thread_misprediction_rate
        print(f"ST2 misprediction from the store: "
              f"{loaded.thread_misprediction_rate:.2%} "
              "(bit-identical to the live trace)")

        # a full ladder sweep costs only analysis time now
        for config in DESIGN_LADDER[:4]:
            rate = run_speculation(
                stored.trace, config).thread_misprediction_rate
            print(f"  {config.name:18s} {rate:6.1%}")
        print(f"ladder exploration from the store: "
              f"{time.time() - t0:.2f}s (no re-execution)")


if __name__ == "__main__":
    main()
