"""An in-process ``ServeApp`` on its own event-loop thread, driven over
real HTTP by blocking client code."""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

#: Seconds to wait for start-up or a graceful drain.
LIFECYCLE_TIMEOUT_S = 120.0


class InProcessServer:
    """One ``ServeApp`` with one shard, its result cache and trace store
    under ``root``."""

    def __init__(self, root: Path):
        from repro import obs
        from repro.runner import ResultCache
        from repro.serve.app import ServeApp
        from repro.sim.trace_store import TraceStore

        self.app = ServeApp(shards=1,
                            trace_store=TraceStore(root / "traces"),
                            cache=ResultCache(root / "cache"),
                            registry=obs.Obs())
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._serve,
                                        name="e2ebench-serve",
                                        daemon=True)
        self._ready = threading.Event()
        self._error = None

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def go():
            try:
                await self.app.start()
            except BaseException as exc:
                self._error = exc
                raise
            finally:
                self._ready.set()
            await self.app.serve_forever()

        try:
            self.loop.run_until_complete(go())
        finally:
            self.loop.close()

    def start(self) -> "InProcessServer":
        self._thread.start()
        if not self._ready.wait(LIFECYCLE_TIMEOUT_S):
            raise RuntimeError("server did not start")
        if self._error is not None:
            raise self._error
        return self

    def stop(self) -> None:
        """Graceful drain: the shard process is joined before return."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.app.drain(), self.loop).result(LIFECYCLE_TIMEOUT_S)
            self._thread.join(LIFECYCLE_TIMEOUT_S)

    @property
    def address(self) -> str:
        return self.app.server.address
