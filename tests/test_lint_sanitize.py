"""The event-loop stall sanitizer (``repro.lint.sanitize``).

Proves the guard catches a deliberately seeded stall, stays silent over
healthy async code, and captures unhandled task exceptions — including ones
routed through :func:`repro.service.server.surface_task_exception`, the
done-callback the concurrency lint rule made the service attach.
"""

from __future__ import annotations

import asyncio
import gc
import time

import pytest

from repro.lint.sanitize import (
    DEFAULT_THRESHOLD,
    EventLoopStallError,
    LoopStallGuard,
    StallEvent,
    loop_stall_guard,
)
from repro.service.server import surface_task_exception


class TestSeededStall:
    def test_synthetic_stall_is_caught(self):
        async def stall_the_loop():
            # The seeded bug: synchronous sleep on the loop thread.
            time.sleep(0.12)

        with pytest.raises(EventLoopStallError) as excinfo:
            with loop_stall_guard(threshold=0.05):
                asyncio.run(stall_the_loop())
        assert "1 stall(s)" in str(excinfo.value)

    def test_stall_event_records_duration_and_handle(self):
        async def stall_the_loop():
            time.sleep(0.12)

        with loop_stall_guard(threshold=0.05, check=False) as guard:
            asyncio.run(stall_the_loop())
        assert len(guard.stalls) == 1
        event = guard.stalls[0]
        assert isinstance(event, StallEvent)
        assert event.seconds >= 0.1
        assert event.handle  # the offending callback is named in the report
        with pytest.raises(EventLoopStallError):
            guard.check()

    def test_stall_below_threshold_passes(self):
        async def brief_blip():
            time.sleep(0.02)

        with loop_stall_guard(threshold=0.3) as guard:
            asyncio.run(brief_blip())
        assert guard.stalls == []


class TestCleanLoop:
    @pytest.fixture(autouse=True)
    def _collect_garbage_first(self):
        # A full collection of the heap the earlier tests leave behind takes
        # 40-80 ms on a 2-core x86 host, longer than the 50 ms threshold
        # below.  Collecting first keeps a collection the guarded code did
        # not cause from landing inside it; whether one would otherwise
        # depends only on how many tests ran before.
        gc.collect()

    def test_healthy_async_code_passes(self):
        async def healthy():
            await asyncio.gather(*(asyncio.sleep(0) for _ in range(10)))
            return 42

        with loop_stall_guard(threshold=0.05) as guard:
            assert asyncio.run(healthy()) == 42
        assert guard.stalls == []
        assert guard.unhandled == []
        assert guard.loops_guarded >= 1

    def test_guarded_loops_run_in_debug_mode(self):
        seen = {}

        async def introspect():
            loop = asyncio.get_running_loop()
            seen["debug"] = loop.get_debug()
            seen["slow"] = loop.slow_callback_duration

        with loop_stall_guard(threshold=0.123, check=False):
            asyncio.run(introspect())
        assert seen["debug"] is True
        assert seen["slow"] == pytest.approx(0.123)

    def test_policy_is_restored_after_the_block(self):
        before = asyncio.get_event_loop_policy()
        with loop_stall_guard(threshold=0.05):
            assert asyncio.get_event_loop_policy() is not before
        assert asyncio.get_event_loop_policy() is before

    def test_executor_hop_does_not_stall_the_loop(self):
        async def hop():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, time.sleep, 0.12)

        # The same 0.12s sleep that trips the seeded-stall test is invisible
        # when it runs where it belongs: on an executor thread.
        with loop_stall_guard(threshold=0.05) as guard:
            asyncio.run(hop())
        assert guard.stalls == []


class TestUnhandledExceptions:
    def test_surfaced_task_exception_is_captured(self):
        async def scenario():
            async def boom():
                raise ValueError("seeded failure")

            task = asyncio.get_running_loop().create_task(boom())
            task.add_done_callback(surface_task_exception)
            await asyncio.sleep(0.01)

        with loop_stall_guard(threshold=5.0, check=False) as guard:
            asyncio.run(scenario())
        assert len(guard.unhandled) == 1
        assert "seeded failure" in guard.unhandled[0]
        with pytest.raises(EventLoopStallError) as excinfo:
            guard.check()
        assert "unhandled" in str(excinfo.value)

    def test_awaited_task_without_callback_is_not_captured(self):
        async def scenario():
            async def boom():
                raise ValueError("handled failure")

            task = asyncio.get_running_loop().create_task(boom())
            try:
                await task
            except ValueError:
                pass

        # The awaiter consumes the exception; with no surfacing callback
        # attached (awaited tasks do not need one) the guard stays clean.
        with loop_stall_guard(threshold=5.0) as guard:
            asyncio.run(scenario())
        assert guard.unhandled == []

    def test_surfacing_is_unconditional_on_failure(self):
        async def scenario():
            async def boom():
                raise ValueError("reported anyway")

            task = asyncio.get_running_loop().create_task(boom())
            task.add_done_callback(surface_task_exception)
            try:
                await task
            except ValueError:
                pass

        # A done-callback cannot know whether some awaiter also consumed the
        # exception, so attaching one means "always report failures" — which
        # is why the service attaches it only to tasks nobody awaits.
        with loop_stall_guard(threshold=5.0, check=False) as guard:
            asyncio.run(scenario())
        assert len(guard.unhandled) == 1

    def test_cancelled_task_is_not_an_error(self):
        async def scenario():
            task = asyncio.get_running_loop().create_task(asyncio.sleep(30))
            task.add_done_callback(surface_task_exception)
            task.cancel()
            await asyncio.sleep(0.01)

        with loop_stall_guard(threshold=5.0) as guard:
            asyncio.run(scenario())
        assert guard.unhandled == []


class TestGuardMechanics:
    def test_default_threshold_is_sane(self):
        guard = LoopStallGuard()
        assert guard.threshold == DEFAULT_THRESHOLD
        assert 0.0 < DEFAULT_THRESHOLD < 1.0

    def test_report_lists_every_event(self):
        guard = LoopStallGuard(threshold=0.1)
        guard.stalls.append(StallEvent(handle="<Handle demo>", seconds=0.4))
        guard.unhandled.append("background task 'x' failed")
        report = guard.report()
        assert "<Handle demo>" in report
        assert "background task 'x' failed" in report
        assert "1 stall(s)" in report

    def test_check_is_quiet_when_clean(self):
        LoopStallGuard().check()
