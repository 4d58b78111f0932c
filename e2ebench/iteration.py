"""One measured repetition of a workload, in a fresh interpreter.

Usage (the benchmark's ``run.py`` starts this; it is not a user entry):

    python3 e2ebench/iteration.py <spawn-time> '<json config>'

``spawn-time`` is the parent's ``time.monotonic()`` just before the
start, so ``setup_s`` runs from a fresh interpreter to ready: imports,
``ModelBundle.ensure()`` and, for ``sweep-served``, server start and
shard fork.  The timed run follows; then, outside the timed region, the
correctness gate and (with ``"trace": true``) the per-layer numbers.
Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Offline:
    """``ladder-cold`` / ``seeds-st2``: ``run_units`` over cold caches,
    then a manifest, exactly as ``st2-run`` does."""

    def __init__(self, cfg: dict, workdir: Path):
        import workloads

        self.cfg = cfg
        self.workdir = workdir
        make = workloads.ladder_units if cfg["workload"] == "ladder-cold" \
            else workloads.seeds_units
        self.units = make(cfg["seed"])
        self.options = None

    def setup(self) -> None:
        pass

    def run(self) -> dict:
        from repro.runner import (ResultCache, RunOptions, run_units,
                                  write_manifest)
        from repro.sim.trace_store import TraceStore

        self.options = RunOptions(
            workers=self.cfg["workers"],
            cache=ResultCache(self.workdir / "cache"),
            trace_store=TraceStore(self.workdir / "traces"),
            engine="auto")
        results = run_units(self.units, self.options)
        write_manifest(self.workdir / "manifest.jsonl", results,
                       meta={"workload": self.cfg["workload"]})
        return {"units": [r.to_dict() for r in results]}

    def latencies(self, out: dict) -> list:
        """A job here is one unit; its latency is the unit's wall."""
        return [u["wall_time_s"] for u in out["units"]]

    def check(self, tally, out: dict) -> None:
        import gate

        gate.check_units(tally, out["units"])

    def gate(self, tally, out: dict) -> dict:
        """Re-evaluate a seeded sample with the reference engine; return
        the accuracy metrics."""
        import gate
        import workloads
        from repro.core.speculation import ST2_DESIGN
        from repro.runner import execute_unit, unit_trace_key

        picks = random.Random(self.cfg["seed"]).sample(
            range(len(self.units)), workloads.GATE_INTERP_UNITS)
        store = self.options.trace_store
        for i in sorted(picks):
            spec = self.units[i]
            ref = execute_unit(spec, store=store,
                               store_key=unit_trace_key(spec),
                               engine="interp")
            gate.check_equal(tally, ref.to_dict(), out["units"][i],
                             "interp vs vec")
        st2 = [u for u in out["units"] if u["config"] == ST2_DESIGN.name]
        acc = workloads.accuracy(st2)
        if any("aux" in u for u in st2):
            acc["valhalla_reduction_err_pp"] = \
                workloads.valhalla_reduction_err_pp(
                    _mean(u["metrics"]["misprediction_rate"] for u in st2),
                    _mean(u["aux"]["valhalla_misprediction_rate"]
                          for u in st2))
        return acc

    def digest_docs(self, out: dict) -> list:
        return out["units"]

    def layers(self, tracer, out: dict) -> dict:
        snap = self.options.obs.snapshot()
        unit_wall = snap["timers"].get("runner.unit.wall", {})
        eval_s = self.options.stats.get("stage_eval_s", 0.0)
        busy = unit_wall.get("total_s", 0.0) / (
            self.cfg["workers"] * eval_s) if eval_s else 0.0
        return {
            "trace_store.bytes": _tree_bytes(self.workdir / "traces"),
            "runner.pool.busy_frac": busy,
        }

    def teardown(self) -> None:
        pass


class Served:
    """``sweep-served``: ``run_sweep(backend="serve")`` against an
    in-process ``ServeApp`` with one shard, cold then warm."""

    def __init__(self, cfg: dict, workdir: Path):
        import workloads

        self.cfg = cfg
        self.workdir = workdir
        self.spec = workloads.sweep_spec(cfg["seed"])
        self.server = None
        self.cold_registry = None

    def setup(self) -> None:
        from server import InProcessServer

        self.server = InProcessServer(self.workdir).start()

    def _sweep(self, name: str, registry=None):
        from repro.sweep.engine import SweepOptions, run_sweep

        options = SweepOptions(backend="serve",
                               server=self.server.address, workers=1,
                               prune_chunk=len(self.spec.kernels),
                               timeout=120.0, client="e2ebench",
                               registry=registry)
        return run_sweep(self.spec, str(self.workdir / f"{name}.jsonl"),
                         options)

    def run(self) -> dict:
        import workloads
        from repro import obs
        from repro.sweep.engine import ServeBackend

        self.cold_registry = obs.Obs()
        cold = self._sweep("cold", self.cold_registry)
        latencies = []
        original = ServeBackend.__dict__["run"]

        def timed(backend, units):
            t0 = time.perf_counter()
            try:
                return original(backend, units)
            finally:
                latencies.append(time.perf_counter() - t0)

        ServeBackend.run = timed
        try:
            warm = [self._sweep(f"warm{i}")
                    for i in range(workloads.SWEEP_WARM_PASSES)]
        finally:
            ServeBackend.run = original
        return {"cold": cold, "warm": warm, "latencies": latencies}

    def latencies(self, out: dict) -> list:
        """A job is one warm wave: submit, wait, page the results."""
        return out["latencies"]

    def check(self, tally, out: dict) -> None:
        import gate
        from repro.sweep.pareto import frontiers_equal

        cold = out["cold"]
        tally.check(cold.complete, "cold sweep incomplete")
        for point in cold.points:
            problems = gate.point_range_problems(point.to_wire())
            tally.check(not problems, "; ".join(problems))
        for i, warm in enumerate(out["warm"]):
            tally.check(frontiers_equal(list(cold.frontier),
                                        list(warm.frontier)),
                        f"warm pass {i}: frontier differs from cold")
            tally.check(frontiers_equal(list(cold.points),
                                        list(warm.points)),
                        f"warm pass {i}: points differ from cold")

    def gate(self, tally, out: dict) -> dict:
        """Serve the gate job, check a sample of its units against
        offline ``run_units``; return the accuracy metrics."""
        import gate
        import workloads
        from repro.core.predictors import SpeculationConfig
        from repro.core.speculation import ST2_DESIGN, VALHALLA
        from repro.runner import ResultCache, RunOptions, UnitSpec, run_units
        from repro.serve.client import ServeClient

        job = workloads.sweep_gate_job(self.cfg["seed"])
        with ServeClient(self.server.address, client=job.client,
                         timeout=120.0) as client:
            status = client.submit(job)
            final = client.wait(status.job_id, timeout=120.0)
            units = list(client.iter_results(status.job_id))
        tally.check(final.state == "done", f"gate job {final.state}")
        gate.check_units(tally, units)
        picks = sorted(random.Random(self.cfg["seed"]).sample(
            range(len(units)), workloads.GATE_SERVED_UNITS))
        specs = [UnitSpec(kernel=units[i]["kernel"],
                          scale=units[i]["scale"], seed=units[i]["seed"],
                          config=SpeculationConfig(
                              **units[i]["config_fields"]),
                          aux=False) for i in picks]
        offline = run_units(specs, RunOptions(
            workers=1, cache=ResultCache(self.workdir / "gate-cache")))
        for i, result in zip(picks, offline):
            gate.check_equal(tally, result.to_dict(), units[i],
                             "served vs offline")
        st2 = [u for u in units if u["config"] == ST2_DESIGN.name]
        val = [u for u in units if u["config"] == VALHALLA.name]
        acc = workloads.accuracy(st2)
        acc["valhalla_reduction_err_pp"] = \
            workloads.valhalla_reduction_err_pp(
                _mean(u["metrics"]["misprediction_rate"] for u in st2),
                _mean(u["metrics"]["misprediction_rate"] for u in val))
        return acc

    def digest_docs(self, out: dict) -> list:
        return [p.to_wire() for p in out["cold"].points]

    def layers(self, tracer, out: dict) -> dict:
        """Server-side layers run in the shard process, so they come
        from the server's ``repro.obs`` registry (worker snapshots are
        merged into it), not from the tracer."""
        cold = out["cold"]
        snap = self.server.app.registry.snapshot()
        counters, timers = snap["counters"], snap["timers"]

        def timer(name, field="total_s"):
            return timers.get(name, {}).get(field, 0)

        client_busy = tracer.stat("serve.client").busy_s
        return {
            "capture.calls": timer("sim.functional.run", "count"),
            "capture.busy_s": timer("sim.functional.run"),
            "trace_store.put_s": timer("trace_store.put"),
            "trace_store.get_s": timer("trace_store.get"),
            "trace_store.bytes": _tree_bytes(self.workdir / "traces"),
            "predict.calls": timer("core.predict", "count"),
            "predict.busy_s": timer("core.predict"),
            "evaluate.busy_s": timer("core.evaluate"),
            "timing.calls": timer("sim.timing.pair", "count"),
            "timing.busy_s": timer("sim.timing.pair"),
            "serve.requests": counters.get("serve.http.requests", 0),
            "serve.units.executed": counters.get("serve.units.executed", 0),
            "serve.units.cache_hits":
                counters.get("serve.units.cache_hits", 0),
            "serve.coalesce.hit": counters.get("serve.coalesce.hit", 0),
            "serve.overhead_s": client_busy - timer("serve.unit.wall"),
            "sweep.configs": cold.meta["n_configs"],
            "sweep.units.executed": cold.executed_units,
            "sweep.units.skipped": cold.skipped_units,
            "sweep.prune.static": self.cold_registry.snapshot()[
                "counters"].get("sweep.prune.static", 0),
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def traced_layers(tracer) -> dict:
    """Per-layer numbers the tracer itself measured."""
    s = tracer.stat
    plan_builds = s("vec.plan.timing").calls
    aux_calls = s("aux.correlation").calls
    return {
        "capture.calls": s("capture").calls,
        "capture.busy_s": s("capture").self_s,
        "capture.rows": tracer.counts.get("capture.rows", 0),
        "trace_store.put_s": s("trace_store.put").self_s,
        "trace_store.get_s": s("trace_store.get").self_s,
        "facts.calls": s("facts").calls,
        "facts.busy_s": s("facts").self_s,
        "vec.plan_builds": plan_builds,
        "vec.plan_s": sum(s(n).self_s for n in (
            "vec.plan", "vec.plan.pack", "vec.plan.timing")),
        "vec.plan.useful_ratio":
            len(tracer.seen.get("vec.plan", ())) / plan_builds
            if plan_builds else 0.0,
        "vec.engine_s": s("vec.engine").self_s,
        "predict.calls": s("predict").calls,
        "predict.busy_s": s("predict").self_s,
        "evaluate.busy_s": s("evaluate").self_s,
        "timing.calls": s("timing").calls,
        "timing.busy_s": s("timing").self_s,
        "aux.calls": aux_calls,
        "aux.busy_s": s("aux.valhalla").self_s
        + s("aux.correlation").self_s,
        "aux.useful_ratio":
            len(tracer.seen.get("aux.correlation", ())) / aux_calls
            if aux_calls else 0.0,
        "runner.unit_s": s("runner.unit").self_s,
        "runner.pool_s": s("runner.pool").self_s,
        "runner.cache.load_s": s("runner.cache.load").self_s,
        "runner.cache.store_s": s("runner.cache.store").self_s,
        "runner.cache.hits": tracer.counts.get("runner.cache.hits", 0),
        "runner.manifest_s": s("runner.manifest").self_s,
        "serve.client_s": s("serve.client").self_s,
        "sweep.expand_s": s("sweep.expand").self_s,
        "sweep.bounds_s": s("sweep.bounds").self_s,
        "sweep.engine_s": s("sweep.engine").self_s,
        "trace.spans": tracer.span_count(),
    }


def measure(session, cfg: dict, tally) -> dict:
    """The timed run, then its checks and (traced) per-layer numbers."""
    import gate
    import layers

    tracer = layers.install(cfg["workload"]) if cfg["trace"] else None
    start = time.perf_counter()
    try:
        out = session.run()
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    doc = {"run_s": run_s, "rss_self_mb": _rss_mb(resource.RUSAGE_SELF)}
    session.check(tally, out)
    doc["accuracy"] = session.gate(tally, out) if cfg["gate"] else None
    doc["latencies"] = session.latencies(out)
    doc["digest"] = gate.digest(session.digest_docs(out))
    if tracer is not None:
        found = traced_layers(tracer)
        found.update(session.layers(tracer, out))
        found.update({
            "trace.wall_s": run_s,
            "trace.attributed_s": tracer.self_total(),
            "runner.unattributed_s": run_s - tracer.self_total(),
        })
        doc["layers"] = found
    return doc


def main(argv) -> int:
    spawned = float(argv[1])
    cfg = json.loads(argv[2])
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(cfg["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    import layers
    layers.import_program(cfg["workload"])
    t1 = time.monotonic()
    from repro import obs
    from repro.runner.units import ModelBundle
    with obs.scoped():              # calibration is not the run's work
        ModelBundle().ensure()
    t2 = time.monotonic()
    session = (Served if cfg["workload"] == "sweep-served"
               else Offline)(cfg, workdir)
    import gate
    tally = gate.Tally()
    try:
        session.setup()
        doc = {"setup_s": time.monotonic() - spawned,
               "import_s": t1 - t0, "models_s": t2 - t1}
        if cfg["run"]:
            doc.update(measure(session, cfg, tally))
    finally:
        session.teardown()
    if cfg["run"]:
        doc["rss_mb"] = doc.pop("rss_self_mb") \
            + _rss_mb(resource.RUSAGE_CHILDREN)
        if "layers" in doc:
            doc["layers"]["import_s"] = doc["import_s"]
            doc["layers"]["models.build_s"] = doc["models_s"]
    doc["tally"] = tally.to_dict()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
