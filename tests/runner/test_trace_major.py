"""Trace-major evaluation: one task per trace, aux computed once.

The aux metrics (VaLHALLA rate, Figure 3 correlation) depend on the
trace alone, so the evaluation stage computes them for the first
``aux`` unit of each (kernel, scale, seed) group and hands them to the
rest.  These tests pin that the results are the ones per-unit
evaluation gives, and that the aux pass runs once per distinct trace.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.speculation import DESIGN_LADDER
from repro.runner import ResultCache, RunOptions, build_units, run_units
from repro.runner.pool import _trace_groups
from repro.runner.units import execute_unit, results_equal
from repro.sim.trace_store import TraceStore

KERNELS = ["qrng_K2", "sortNets_K2"]
CONFIGS = tuple(DESIGN_LADDER[:3])
SCALE = 0.1


@pytest.fixture(scope="module")
def units():
    return build_units(KERNELS, configs=CONFIGS, scale=SCALE, aux=True)


@pytest.fixture(scope="module")
def per_unit(units):
    """Every unit evaluated on its own, each computing its own aux."""
    return [execute_unit(spec) for spec in units]


def counters(options) -> dict:
    return options.obs.snapshot()["counters"]


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_equals_per_unit_evaluation(tmp_path, units, per_unit,
                                         workers):
    options = RunOptions(workers=workers, use_cache=False,
                         trace_store=TraceStore(tmp_path / "traces"))
    results = run_units(units, options)
    assert [(r.kernel, r.config) for r in results] == \
        [(s.kernel, s.config.name) for s in units]
    for got, want in zip(results, per_unit):
        assert "aux" in got.to_dict()
        assert results_equal(got, want), f"{got.kernel}[{got.config}]"
    c = counters(options)
    assert c["runner.aux.computed"] == len(KERNELS)
    assert c["runner.aux.reused"] == len(units) - len(KERNELS)
    timers = options.obs.snapshot()["timers"]
    assert timers["runner.unit.aux"]["count"] == len(KERNELS)


def test_aux_computed_once_per_trace_with_cache_hits(tmp_path, units,
                                                     per_unit):
    cache = ResultCache(tmp_path / "cache")
    # warm the cache with the first config of each kernel: the aux unit
    # that would have computed aux is now a cache hit
    first = [spec for spec in units if spec.config == CONFIGS[0]]
    run_units(first, RunOptions(workers=1, cache=cache))
    options = RunOptions(workers=1, cache=cache)
    results = run_units(units, options)
    assert [r.cached for r in results] == \
        [spec.config == CONFIGS[0] for spec in units]
    for got, want in zip(results, per_unit):
        assert results_equal(got, want)
    c = counters(options)
    assert c["runner.units.cached"] == len(first)
    assert c["runner.aux.computed"] == len(KERNELS)
    assert c["runner.aux.reused"] == \
        len(units) - len(first) - len(KERNELS)


def test_mixed_aux_group_attaches_aux_only_where_asked(units):
    kernel = KERNELS[0]
    # [off, on, on]: the first aux unit of the group is not its first
    mixed = [dataclasses.replace(spec, aux=i > 0)
             for i, spec in enumerate(s for s in units
                                      if s.kernel == kernel)]
    assert len(_trace_groups([(i, s) for i, s in enumerate(mixed)])) == 1
    options = RunOptions(workers=1, use_cache=False)
    results = run_units(mixed, options)
    for spec, result in zip(mixed, results):
        assert ("aux" in result.to_dict()) == spec.aux
        assert results_equal(result, execute_unit(spec))
    c = counters(options)
    assert c["runner.aux.computed"] == 1
    assert c["runner.aux.reused"] == 1


def test_aux_off_grid_has_no_aux_obs():
    options = RunOptions(workers=1, use_cache=False)
    run_units(build_units(KERNELS, configs=CONFIGS, scale=SCALE,
                          aux=False), options)
    snap = options.obs.snapshot()
    assert not any(name.startswith("runner.aux")
                   for name in snap["counters"])
    assert "runner.unit.aux" not in snap["timers"]


def test_trace_groups_partition_in_first_seen_order(units):
    items = list(enumerate(units))[::-1]
    groups = _trace_groups(items)
    assert [g[0][1].kernel for g in groups] == KERNELS[::-1]
    for group in groups:
        assert len({(s.kernel, s.scale, s.seed) for _, s in group}) == 1
    assert [item for g in groups for item in g] == items
