"""Which public calls of the program the traced run wraps, per layer.

Every module named here is imported during set-up by both the traced
and the untraced run, so the two time the same work and no late import
can copy a wrapper the tracer would not know to restore.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

PROGRAM_MODULES = (
    "repro.core.batch", "repro.core.correlation", "repro.core.predictors",
    "repro.core.speculation", "repro.kernels.suite", "repro.lint.facts",
    "repro.runner", "repro.runner.cache", "repro.runner.manifest",
    "repro.runner.pool", "repro.runner.units", "repro.sim.trace_store",
    "repro.sim.vec", "repro.sim.vec.engine", "repro.sim.vec.plan",
    "repro.sim.vec.timing", "repro.st2.paper_numbers",
    "repro.st2.architecture", "repro.st2.ablations",
)

SERVE_MODULES = (
    "repro.api", "repro.lint.bounds", "repro.serve.app",
    "repro.serve.client", "repro.sweep.engine", "repro.sweep.grid",
    "repro.sweep.pareto",
)


def import_program(workload: str) -> None:
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    if workload == "sweep-served":
        for name in SERVE_MODULES:
            importlib.import_module(name)


def _rows(tracer, args, kwargs, run) -> None:
    tracer.count("capture.rows", len(run.trace))


def _plan_key(tracer, args, kwargs, plan) -> None:
    key = kwargs.get("key", args[1] if len(args) > 1 else None)
    tracer.note("vec.plan", key)


def _aux_trace(tracer, args, kwargs, result) -> None:
    trace = args[0]
    name = kwargs.get("kernel", args[1] if len(args) > 1 else "")
    tracer.note("aux.correlation", (name, len(trace)))


def _cache_hit(tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("runner.cache.hits")


def install(workload: str) -> Tracer:
    """Wrap every layer's public calls; the caller must ``remove()``."""
    import repro.core.batch as batch
    import repro.core.correlation as correlation
    import repro.core.predictors as predictors
    import repro.kernels.suite as suite
    import repro.lint.facts as facts
    import repro.runner.cache as cache
    import repro.runner.manifest as manifest
    import repro.runner.pool as pool
    import repro.runner.units as units
    import repro.sim.trace_store as trace_store
    import repro.sim.vec.engine as engine
    import repro.sim.vec.plan as plan
    import repro.sim.vec.timing as timing

    tracer = Tracer()
    try:
        tracer.patch_function(suite, "run_kernel", "capture", _rows)
        tracer.patch_method(trace_store.TraceStore, "put",
                            "trace_store.put")
        tracer.patch_method(trace_store.TraceStore, "get",
                            "trace_store.get")
        tracer.patch_function(facts, "facts_for_kernel", "facts")
        tracer.patch_function(plan, "plan_for", "vec.plan", _plan_key)
        tracer.patch_function(batch, "build_pack", "vec.plan.pack")
        tracer.patch_function(timing, "build_timing_plan",
                              "vec.plan.timing")
        tracer.patch_function(engine, "evaluate_unit", "vec.engine")
        tracer.patch_function(batch, "predict_trace_batch", "predict")
        tracer.patch_function(batch, "evaluate_trace_batch", "evaluate")
        tracer.patch_function(timing, "run_pair", "timing")
        tracer.patch_function(predictors, "run_speculation",
                              "aux.valhalla")
        tracer.patch_function(correlation, "slice_carry_correlation",
                              "aux.correlation", _aux_trace)
        tracer.patch_function(units, "execute_unit", "runner.unit")
        tracer.patch_function(pool, "run_units", "runner.pool")
        tracer.patch_method(cache.ResultCache, "load",
                            "runner.cache.load", _cache_hit)
        tracer.patch_method(cache.ResultCache, "store",
                            "runner.cache.store")
        tracer.patch_function(manifest, "write_manifest",
                              "runner.manifest")
        if workload == "sweep-served":
            import repro.serve.client as client
            import repro.sweep.engine as sweep_engine
            import repro.sweep.grid as grid

            tracer.patch_function(sweep_engine, "run_sweep",
                                  "sweep.engine")
            tracer.patch_function(grid, "expand_plan", "sweep.expand")
            for name in ("__init__", "class_bounds"):
                tracer.patch_method(sweep_engine.StaticBoundsIndex, name,
                                    "sweep.bounds")
            for name in ("submit", "submit_batch", "wait", "status",
                         "result_page"):
                tracer.patch_method(client.ServeClient, name,
                                    "serve.client")
    except BaseException:
        tracer.remove()
        raise
    return tracer
