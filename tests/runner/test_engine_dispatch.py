"""Engine selection: ``--engine {interp,vec,auto}`` through
``execute_unit`` and ``run_units``.

The dispatch contract: ``interp`` and ``vec`` are honoured as
requested (``vec`` raises when a run cannot take the vectorized path),
``auto`` prefers ``vec`` with a counted per-unit fallback — and
whichever engine runs, the numbers are identical.
"""

from __future__ import annotations

import pytest

from repro.core.speculation import PREV, ST2_DESIGN
from repro.runner import RunOptions, build_units, run_units
from repro.runner.units import (ENGINES, UnitSpec, _resolve_engine,
                                execute_unit, results_equal)
from repro.sim import vec
from repro.sim.trace_store import TraceStore

KERNELS = ["qrng_K2", "sortNets_K2"]
SCALE = 0.1


@pytest.fixture(scope="module")
def units():
    return build_units(KERNELS, configs=(ST2_DESIGN, PREV),
                       scale=SCALE, aux=False)


def opts(tmp_path, engine, workers=1, tag=""):
    return RunOptions(workers=workers, use_cache=False, engine=engine,
                      trace_store=TraceStore(
                          tmp_path / f"ts-{engine}{workers}{tag}"))


class TestExecuteUnitDispatch:
    SPEC = UnitSpec(kernel="qrng_K2", scale=SCALE, seed=0,
                    config=ST2_DESIGN, aux=False)

    def test_engine_field_records_what_ran(self):
        interp = execute_unit(self.SPEC, engine="interp")
        vec_r = execute_unit(self.SPEC, engine="vec")
        auto = execute_unit(self.SPEC, engine="auto")
        assert interp.data["engine"] == "interp"
        assert vec_r.data["engine"] == "vec"
        # the suite kernels are all vec-supported, so auto picks vec
        assert auto.data["engine"] == "vec"
        assert results_equal(interp, vec_r)
        assert results_equal(interp, auto)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            execute_unit(self.SPEC, engine="turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            RunOptions(engine="turbo")

    def test_auto_falls_back_when_unsupported(self, monkeypatch):
        monkeypatch.setattr("repro.sim.vec.supported",
                            lambda run, key=None: "nope")
        result = execute_unit(self.SPEC, engine="auto")
        assert result.data["engine"] == "interp"
        assert results_equal(result,
                             execute_unit(self.SPEC, engine="interp"))

    def test_forced_vec_raises_when_unsupported(self, monkeypatch):
        monkeypatch.setattr("repro.sim.vec.supported",
                            lambda run, key=None: "nope")
        with pytest.raises(vec.VecUnsupportedError, match="nope"):
            execute_unit(self.SPEC, engine="vec")

    def test_fallback_is_counted(self, monkeypatch):
        from repro import obs
        monkeypatch.setattr("repro.sim.vec.supported",
                            lambda run, key=None: "nope")
        with obs.scoped() as reg:
            execute_unit(self.SPEC, engine="auto")
        assert reg.snapshot()["counters"][
            "runner.engine.fallback"] == 1

    def test_resolve_engine_interp_never_scans(self):
        # interp short-circuits before any trace scan, so even a run
        # object the scanner would choke on is fine
        assert _resolve_engine("interp", object()) == "interp"


class TestRunUnitsPlumbing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_vec_grid_equals_interp_grid(self, tmp_path, units,
                                         workers):
        interp = run_units(units, opts(tmp_path, "interp", workers))
        vec_r = run_units(units, opts(tmp_path, "vec", workers))
        for a, b in zip(interp, vec_r):
            assert a.data["engine"] == "interp"
            assert b.data["engine"] == "vec"
            assert results_equal(a, b), (workers, a.kernel)

    def test_auto_grid_uses_vec(self, tmp_path, units):
        results = run_units(units, opts(tmp_path, "auto"))
        assert all(r.data["engine"] == "vec" for r in results)

    def test_engine_survives_the_result_cache(self, tmp_path, units):
        from repro.runner import ResultCache
        cache = ResultCache(tmp_path / "cache")
        store = TraceStore(tmp_path / "ts-cache")
        cold = run_units(units, RunOptions(
            cache=cache, trace_store=store, engine="vec"))
        warm = run_units(units, RunOptions(
            cache=cache, trace_store=store, engine="vec"))
        assert all(r.data["engine"] == "vec" for r in cold)
        assert all(r.cached for r in warm)
        for c, w in zip(cold, warm):
            assert results_equal(c, w)


class TestInlineDispatch:
    """Small forced-vec grids skip the pool (the fork + IPC overhead
    dominates millisecond-priced units); everything else honours
    ``options.workers``."""

    def eval_workers(self, tmp_path, monkeypatch, engine, tag):
        from repro.runner import pool

        seen = []
        real = pool._map_parallel

        def spy(fn, items, workers, store_root=None,
                need_models=True):
            if fn is pool._run_trace:
                seen.append(workers)
            return real(fn, items, workers, store_root,
                        need_models=need_models)

        monkeypatch.setattr(pool, "_map_parallel", spy)
        units = build_units(KERNELS, configs=(ST2_DESIGN,),
                            scale=SCALE, aux=False)
        run_units(units, opts(tmp_path, engine, workers=2, tag=tag))
        assert len(seen) == 1
        return seen[0]

    def test_small_vec_grid_runs_inline(self, tmp_path, monkeypatch):
        assert self.eval_workers(tmp_path, monkeypatch, "vec",
                                 "a") == 1

    def test_interp_grid_honours_workers(self, tmp_path, monkeypatch):
        assert self.eval_workers(tmp_path, monkeypatch, "interp",
                                 "b") == 2


def test_engines_tuple_is_the_contract():
    assert ENGINES == ("interp", "vec", "auto")
