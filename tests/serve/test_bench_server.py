"""The load benchmark's in-process server (``benchmarks/bench_serve.py``
``_Server``): a failed start-up surfaces at once, and leaving the block
drains the app so no shard process outlives it."""

import importlib.util
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_serve.py"


@pytest.fixture(scope="module")
def bench_serve():
    spec = importlib.util.spec_from_file_location("bench_serve", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_startup_failure_reraises_at_once(bench_serve, tmp_path):
    server = bench_serve._Server(1, tmp_path)

    async def broken_start():
        raise OSError("port in use")

    server.app.start = broken_start
    t0 = time.monotonic()
    with pytest.raises(OSError, match="port in use"):
        with server:
            pass
    assert time.monotonic() - t0 < 10.0
    assert not server._thread.is_alive()


def test_exit_drains_and_joins_shards(bench_serve, tmp_path):
    with bench_serve._Server(1, tmp_path) as server:
        procs = list(server.app.pool._procs)
        assert procs and all(p.is_alive() for p in procs)
    assert server.app.state.draining
    assert not any(p.is_alive() for p in procs)
    assert not server._thread.is_alive()
