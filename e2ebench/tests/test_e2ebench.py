"""The benchmark's own checks: the gate notices a wrong result, the
percentile helper refuses thin tails, names follow the contract and the
tracer leaves nothing patched behind.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

import benchstats
import gate
import layers
import workloads
from tracer import Tracer, is_wrapped

ROOT = Path(__file__).resolve().parents[2]


def unit() -> dict:
    return {
        "kernel": "sgemm", "scale": 0.125, "seed": 0,
        "config": "Ltid+Prev+ModPC4+Peek", "config_fields": {},
        "engine": "vec", "wall_time_s": 0.1, "capture_time_s": 0.0,
        "eval_time_s": 0.1, "trace_cache_hit": False, "trace_rows": 10,
        "trace_bytes": 100, "n_static_pcs": 3,
        "metrics": {"misprediction_rate": 0.05, "alu_fpu_share": 0.3,
                    "baseline_cycles": 1000, "st2_cycles": 1004,
                    "slowdown": 0.004, "chip_saving": 0.2,
                    "static_peek": {"misprediction_rate_base": 0.05,
                                    "misprediction_rate_static": 0.04}},
        "energy_stacks": {},
        "aux": {"valhalla_misprediction_rate": 0.2,
                "correlation": {"Prev+Gtid": float("nan")}},
    }


# -- correctness gate ----------------------------------------------------

def test_valid_unit_passes_the_gate():
    tally = gate.Tally()
    gate.check_units(tally, [unit()])
    gate.check_equal(tally, unit(), unit(), "self")
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 0, 0.0)


@pytest.mark.parametrize("path, value", [
    (("metrics", "misprediction_rate"), 1.5),
    (("metrics", "alu_fpu_share"), -0.1),
    (("metrics", "st2_cycles"), 999),
    (("aux", "valhalla_misprediction_rate"), 2.0),
])
def test_out_of_range_result_raises_error_rate(path, value):
    bad = unit()
    bad[path[0]][path[1]] = value
    tally = gate.Tally()
    gate.check_units(tally, [unit(), bad])
    assert tally.failed == 1
    assert tally.error_rate == 0.5


def test_perturbed_result_fails_the_equality_gate():
    bad = copy.deepcopy(unit())
    bad["metrics"]["chip_saving"] += 1e-12
    tally = gate.Tally()
    gate.check_equal(tally, unit(), bad, "interp vs vec")
    assert tally.error_rate == 1.0
    # runtime-only fields never count as a difference
    late = unit()
    late["wall_time_s"] = 9.0
    gate.check_equal(tally, unit(), late, "interp vs vec")
    assert tally.failed == 1


def test_digest_sees_simulated_numbers_only():
    late = unit()
    late["wall_time_s"] = 9.0
    assert gate.digest([unit()]) == gate.digest([late])
    moved = unit()
    moved["metrics"]["slowdown"] = 0.005
    assert gate.digest([unit()]) != gate.digest([moved])


# -- percentiles -----------------------------------------------------------

def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        benchstats.percentile(range(99), 0.9)
    assert benchstats.percentile(range(100), 0.9) == 89
    with pytest.raises(ValueError):
        benchstats.percentile(range(19), 0.5)
    assert benchstats.percentile(range(20), 0.5) == 9


# -- names -----------------------------------------------------------------

def test_every_name_matches_the_contract():
    for name in [*workloads.WORKLOADS, *workloads.END_TO_END,
                 *workloads.PER_LAYER]:
        assert benchstats.check_name(name) == name
    with pytest.raises(ValueError):
        benchstats.check_name("p50 latency")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        workloads.PER_LAYER
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


# -- tracer ----------------------------------------------------------------

def _wrapped_attributes() -> list:
    found = []
    for mod in list(sys.modules.values()):
        for name, value in list(getattr(mod, "__dict__", {}).items()):
            if is_wrapped(value):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type):
                found += [f"{value.__name__}.{n}"
                          for n, v in vars(value).items() if is_wrapped(v)]
    return sorted(set(found))


def test_wrappers_reach_every_caller_and_are_removed():
    import repro.core.batch as batch
    import repro.sim.vec.engine as engine
    from repro.sim.trace_store import TraceStore

    layers.import_program("sweep-served")
    original = batch.predict_trace_batch
    tracer = layers.install("sweep-served")
    try:
        # the name-imported copy the vec engine calls is wrapped too
        assert is_wrapped(engine.predict_trace_batch)
        assert is_wrapped(batch.predict_trace_batch)
        assert is_wrapped(TraceStore.__dict__["put"])
    finally:
        tracer.remove()
    assert engine.predict_trace_batch is original
    assert _wrapped_attributes() == []


def test_wrappers_are_removed_when_the_traced_pass_raises():
    import repro.lint.facts as facts

    tracer = layers.install("ladder-cold")
    with pytest.raises(RuntimeError):
        with tracer:
            facts.facts_for_kernel("no-such-kernel")
            raise RuntimeError("pass failed")
    assert _wrapped_attributes() == []
    assert tracer.stat("facts").calls == 1


def test_self_times_and_remainder_add_up_to_wall():
    import time
    import types

    mod = types.ModuleType("e2ebench_fake_layer")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        with Tracer() as tracer:
            tracer.patch_function(mod, "inner", "inner")
            tracer.patch_function(mod, "outer", "outer")
            start = time.perf_counter()
            mod.outer()
            mod.inner()
            wall = time.perf_counter() - start
        assert tracer.stat("inner").calls == 2
        outer_stat = tracer.stat("outer")
        assert outer_stat.self_s < outer_stat.busy_s
        assert 0 <= wall - tracer.self_total() < 0.005
        assert mod.inner is inner and mod.outer is outer
    finally:
        del sys.modules[mod.__name__]
