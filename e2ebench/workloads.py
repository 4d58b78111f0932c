"""The benchmark's workloads, metric names and input generators.

Each workload is made from the ``--seed`` argument alone; the program
only ever sees the generated ``UnitSpec`` list or ``SweepSpec``.  Sizes
are chosen so that one measured repetition takes roughly ten seconds on
a two-core host, and a ``--seconds`` window holds several of them (see
README.md for the measured durations behind each constant).
"""

from __future__ import annotations

import os
import random

#: Worker processes the benchmark may use: what ``nproc`` reports.
NPROC = len(os.sched_getaffinity(0))

#: ``ladder-cold``: 23 kernels x the 12-config Figure-5 ladder.
LADDER_SCALE = 0.125

#: ``seeds-st2``: 23 kernels x ST2 only, several per-kernel seeds.
SEEDS_SCALE = 0.25
SEEDS_PER_RUN = 3

#: ``sweep-served``: all six sweep axes over a few kernels, served.
SWEEP_KERNELS = ("qrng_K1", "sgemm")
SWEEP_SCALE = 0.125
SWEEP_PC_BITS = (2, 4)
#: Warm re-sweeps after the cold one; each is one job per wave.
SWEEP_WARM_PASSES = 12

#: Units re-evaluated by the reference ``interp`` engine per run.
GATE_INTERP_UNITS = 3
#: Served gate-job units re-run offline and compared per run.
GATE_SERVED_UNITS = 4

#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = ("ladder-cold", "seeds-st2", "sweep-served")

#: End-to-end metrics: name -> unit (host time unless stated).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "mispred_err_pp": "pp",
    "chip_saving_err_pp": "pp",
    "slowdown_err_pp": "pp",
}

#: Per-layer metrics of the traced run: name -> unit.  Times are self
#: times (busy time minus nested traced calls).
PER_LAYER = {
    "import_s": "s",
    "models.build_s": "s",
    "capture.calls": "count",
    "capture.busy_s": "s",
    "capture.rows": "count",
    "trace_store.put_s": "s",
    "trace_store.get_s": "s",
    "trace_store.bytes": "bytes",
    "facts.calls": "count",
    "facts.busy_s": "s",
    "vec.plan_builds": "count",
    "vec.plan_s": "s",
    "vec.plan.useful_ratio": "ratio",
    "vec.engine_s": "s",
    "predict.calls": "count",
    "predict.busy_s": "s",
    "evaluate.busy_s": "s",
    "timing.calls": "count",
    "timing.busy_s": "s",
    "aux.calls": "count",
    "aux.busy_s": "s",
    "aux.useful_ratio": "ratio",
    "runner.unit_s": "s",
    "runner.pool_s": "s",
    "runner.cache.load_s": "s",
    "runner.cache.store_s": "s",
    "runner.cache.hits": "count",
    "runner.manifest_s": "s",
    "runner.pool.busy_frac": "ratio",
    "runner.unattributed_s": "s",
    "serve.requests": "count",
    "serve.units.executed": "count",
    "serve.units.cache_hits": "count",
    "serve.coalesce.hit": "count",
    "serve.client_s": "s",
    "serve.overhead_s": "s",
    "sweep.configs": "count",
    "sweep.units.executed": "count",
    "sweep.units.skipped": "count",
    "sweep.prune.static": "count",
    "sweep.expand_s": "s",
    "sweep.bounds_s": "s",
    "sweep.engine_s": "s",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def base_seeds(seed: int, n: int) -> list:
    """``n`` base seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(n)]


def ladder_units(seed: int) -> list:
    from repro.core.speculation import DESIGN_LADDER
    from repro.kernels.suite import KERNEL_NAMES
    from repro.runner import build_units

    return build_units(KERNEL_NAMES, DESIGN_LADDER, scale=LADDER_SCALE,
                       seed=seed, aux=True)


def seeds_units(seed: int) -> list:
    from repro.core.speculation import ST2_DESIGN
    from repro.kernels.suite import KERNEL_NAMES
    from repro.runner import build_units

    units = []
    for base in base_seeds(seed, SEEDS_PER_RUN):
        units += build_units(KERNEL_NAMES, (ST2_DESIGN,),
                             scale=SEEDS_SCALE, seed=base, aux=False,
                             per_kernel_seeds=True)
    return units


def sweep_spec(seed: int):
    from repro.api import SWEEP_AXES, SweepSpec

    axes = tuple((axis, values if values is not None else SWEEP_PC_BITS)
                 for axis, values in SWEEP_AXES.items())
    return SweepSpec(kernels=SWEEP_KERNELS, axes=axes, name="e2ebench",
                     scale=SWEEP_SCALE, seed=seed, engine="auto",
                     aux=False)


def sweep_gate_job(seed: int):
    """The served job the sweep-served gate checks and scores: ST2 and
    VaLHALLA over all 23 kernels at the sweep's scale and seed."""
    from repro.api import JobSpec
    from repro.kernels.suite import KERNEL_NAMES

    return JobSpec(kernels=KERNEL_NAMES, configs=("st2", "valhalla"),
                   scale=SWEEP_SCALE, seed=seed, engine="auto",
                   aux=False, client="e2ebench-gate")


def accuracy(st2_units) -> dict:
    """Distance, in percentage points, of the mean ST2 misprediction
    rate, chip-energy saving and slowdown from the paper's numbers."""
    from repro.st2.paper_numbers import value

    def mean(key):
        return sum(u["metrics"][key] for u in st2_units) / len(st2_units)

    return {
        "mispred_err_pp":
            abs(mean("misprediction_rate") - value("miss_st2")) * 100,
        "chip_saving_err_pp":
            abs(mean("chip_saving") - value("chip_energy_saving")) * 100,
        "slowdown_err_pp":
            abs(mean("slowdown") - value("avg_slowdown")) * 100,
    }


def valhalla_reduction_err_pp(st2_rate: float, valhalla_rate: float
                              ) -> float:
    """Distance of the measured ST2-vs-VaLHALLA misprediction reduction
    from the paper's, in percentage points."""
    from repro.st2.paper_numbers import value

    reduction = 1 - st2_rate / valhalla_rate
    return abs(reduction - value("st2_vs_valhalla_reduction")) * 100
