"""Tests for the async solve service (repro.service).

Covers the four work-avoidance layers — store answers, in-flight dedup,
solve grouping and ``batched_expectations``-coalesced sweeps — plus the
bounded pool's failure isolation, per-request timeouts, graceful shutdown,
and both clients (in-process and TCP).  No pytest-asyncio in the
environment, so each test drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.qcircuit.transpile import transpile_cache_info
from repro.run import (
    RunRecord,
    RunSpec,
    execute_spec,
    register_benchmark,
    register_solver,
    unregister_benchmark,
    unregister_solver,
)
from repro.service import (
    ResultStore,
    ServiceClient,
    SolveService,
    SpecCompiler,
    SweepRequest,
    TCPServiceClient,
    serve_tcp,
    solve_group_key,
)
import repro.service.server as service_server
from repro.service.coalesce import execute_group, execute_sweep
from repro.solvers.base import QuantumSolver
from repro.solvers.hea import HEAConfig
from repro.solvers.structure import structure_cache_info
from repro.solvers.variational import batched_expectations
from test_run_api import tiny_problem

BENCH = "service-tiny-one-hot"


@pytest.fixture(autouse=True)
def _sanitized_event_loops(stall_guard):
    """Run every service test under the event-loop stall sanitizer.

    The runtime cross-check on the static ``concurrency`` lint rule: if any
    service path blocks the loop or drops a task exception, the guard fails
    the test at teardown with a stall report.
    """
    yield


@pytest.fixture
def tiny_benchmark():
    register_benchmark(BENCH, tiny_problem, replace=True)
    yield BENCH
    unregister_benchmark(BENCH)


class NoSpecSolver(QuantumSolver):
    """A registered solver without ``build_spec()``: it cannot be swept."""

    name = "service-no-spec"
    config_cls = HEAConfig

    def solve(self, problem):
        raise AssertionError("sweep tests never solve")


@pytest.fixture
def no_spec_solver():
    register_solver(NoSpecSolver.name, NoSpecSolver, HEAConfig, replace=True)
    yield NoSpecSolver.name
    unregister_solver(NoSpecSolver.name)


def make_spec(seed: int = 0, **overrides) -> RunSpec:
    fields = {
        "solver": "choco-q",
        "benchmark": BENCH,
        "config": {"num_layers": 1},
        "seed": seed,
        "shots": 64,
        "max_iterations": 6,
    }
    fields.update(overrides)
    return RunSpec(**fields)


class SpyExecutor:
    """Thread-safe counting stand-in for ``execute_spec``."""

    def __init__(
        self,
        gate: "threading.Event | None" = None,
        poison_seeds: tuple = (),
    ):
        self.calls: list[RunSpec] = []
        self.gate = gate
        self.poison_seeds = set(poison_seeds)
        self._lock = threading.Lock()

    def __call__(self, spec: RunSpec) -> RunRecord:
        with self._lock:
            self.calls.append(spec)
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "spy gate never released"
        if spec.seed in self.poison_seeds:
            raise ServiceError(f"poisoned spec seed={spec.seed}")
        return RunRecord(
            spec=spec,
            spec_hash=spec.content_hash(),
            result={"spy": True},
            metrics={"seed": spec.seed},
        )


# ---------------------------------------------------------------------------
# Dedup, store answers, grouping (spy-backed: no real solver work)
# ---------------------------------------------------------------------------


class TestSolvePath:
    def test_identical_concurrent_requests_execute_once(self):
        spy = SpyExecutor()

        async def scenario():
            async with SolveService(execute_fn=spy, max_workers=2) as service:
                records = await asyncio.gather(
                    *(service.solve(make_spec(seed=0)) for _ in range(8))
                )
                return records, service.stats()

        records, stats = asyncio.run(scenario())
        assert len(spy.calls) == 1
        assert stats["executed"] == 1
        assert stats["deduped"] == 7
        assert len({id(record) for record in records}) >= 1
        assert all(record.spec_hash == records[0].spec_hash for record in records)

    def test_repeat_request_is_a_store_hit_with_no_execution(self):
        spy = SpyExecutor()

        async def scenario():
            async with SolveService(execute_fn=spy) as service:
                first = await service.solve(make_spec(seed=1))
                second = await service.solve(make_spec(seed=1))
                return first, second, service.stats()

        first, second, stats = asyncio.run(scenario())
        assert len(spy.calls) == 1
        assert not first.cached and second.cached
        assert stats["store_hits"] == 1
        assert second.metrics == first.metrics

    def test_store_backed_by_jsonl_survives_restart(self, tmp_path):
        spy = SpyExecutor()
        path = tmp_path / "store.jsonl"

        async def first_life():
            async with SolveService(path, execute_fn=spy) as service:
                await service.solve(make_spec(seed=2))

        async def second_life():
            async with SolveService(path, execute_fn=spy) as service:
                record = await service.solve(make_spec(seed=2))
                return record, service.stats()

        asyncio.run(first_life())
        record, stats = asyncio.run(second_life())
        assert len(spy.calls) == 1  # second life answered from the file
        assert record.cached
        assert stats["store_hits"] == 1 and stats["executed"] == 0

    def test_seed_compatible_specs_ride_one_group_dispatch(self):
        spy = SpyExecutor()

        async def scenario():
            async with SolveService(execute_fn=spy, max_workers=1) as service:
                records = await service.solve_many(
                    [make_spec(seed=seed) for seed in range(6)]
                )
                return records, service.stats()

        records, stats = asyncio.run(scenario())
        assert len(spy.calls) == 6  # every spec still executes individually
        assert stats["executed"] == 6
        # With one worker slot, the burst queues behind the first dispatch
        # and the rest of the group rides along.
        assert stats["solves_coalesced"] >= 1
        assert [record.metrics["seed"] for record in records] == list(range(6))

    def test_group_key_ignores_seed_but_nothing_else(self):
        base = make_spec(seed=0)
        assert solve_group_key(base) == solve_group_key(make_spec(seed=99))
        assert solve_group_key(base) != solve_group_key(make_spec(seed=0, shots=128))
        assert solve_group_key(base) != solve_group_key(
            make_spec(seed=0, config={"num_layers": 2})
        )

    def test_group_key_separates_optimization_levels(self):
        level_two = solve_group_key(make_spec(seed=0, optimization_level=2))
        assert level_two == solve_group_key(make_spec(seed=1, optimization_level=2))
        assert level_two != solve_group_key(make_spec(seed=1, optimization_level=0))
        assert level_two != solve_group_key(make_spec(seed=1))

    def test_per_spec_failure_is_isolated_within_a_group(self):
        spy = SpyExecutor(poison_seeds=(1,))

        async def scenario():
            async with SolveService(execute_fn=spy, max_workers=1) as service:
                # Same group key (seeds differ only): both ride one dispatch,
                # and the poisoned seed must not take down its neighbour.
                results = await asyncio.gather(
                    service.solve(make_spec(seed=0)),
                    service.solve(make_spec(seed=1)),
                    return_exceptions=True,
                )
                return results, service.stats()

        (good_result, bad_result), stats = asyncio.run(scenario())
        assert isinstance(good_result, RunRecord)
        assert isinstance(bad_result, ServiceError)
        assert "poisoned spec seed=1" in str(bad_result)
        assert stats["executed"] == 1 and stats["failures"] == 1

    def test_dict_shaped_spec_accepted(self):
        spy = SpyExecutor()

        async def scenario():
            async with SolveService(execute_fn=spy) as service:
                return await service.solve(make_spec(seed=3).to_dict())

        record = asyncio.run(scenario())
        assert record.metrics == {"seed": 3}


# ---------------------------------------------------------------------------
# Timeouts, lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_timeout_raises_but_execution_still_lands_in_store(self):
        gate = threading.Event()
        spy = SpyExecutor(gate=gate)

        async def scenario():
            async with SolveService(execute_fn=spy) as service:
                spec = make_spec(seed=4)
                with pytest.raises(ServiceTimeoutError, match="timeout"):
                    await service.solve(spec, timeout=0.05)
                gate.set()  # release the worker; the execution was not cancelled
                deadline = asyncio.get_running_loop().time() + 5.0
                while spec.content_hash() not in service.store:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                retry = await service.solve(spec)
                return retry, service.stats()

        retry, stats = asyncio.run(scenario())
        assert stats["timeouts"] == 1
        assert retry.cached  # the retry is a pure store hit
        assert len(spy.calls) == 1

    def test_solve_before_start_or_after_stop_is_closed(self):
        spy = SpyExecutor()

        async def scenario():
            service = SolveService(execute_fn=spy)
            with pytest.raises(ServiceClosedError):
                await service.solve(make_spec())
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.solve(make_spec())

        asyncio.run(scenario())

    def test_graceful_stop_drains_inflight_work(self):
        gate = threading.Event()
        spy = SpyExecutor(gate=gate)

        async def scenario():
            service = await SolveService(execute_fn=spy).start()
            spec = make_spec(seed=5)
            task = asyncio.ensure_future(service.solve(spec))
            while not spy.calls:  # wait until the worker owns the spec
                await asyncio.sleep(0.01)
            gate.set()
            await service.stop()  # drains: the record must land first
            assert spec.content_hash() in service.store
            return await task

        record = asyncio.run(scenario())
        assert record.metrics == {"seed": 5}

    def test_constructor_validation(self):
        with pytest.raises(ServiceError, match="max_workers"):
            SolveService(max_workers=0)
        with pytest.raises(ServiceError, match="max_group_size"):
            SolveService(max_group_size=0)
        with pytest.raises(ServiceError, match="sweep_window"):
            SolveService(sweep_window=-1.0)


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_refresh_picks_up_new_lines(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        writer = ResultStore(path)
        reader = ResultStore(path)
        spec = make_spec(seed=6)
        writer.put(
            RunRecord(spec=spec, spec_hash=spec.content_hash(),
                      result={}, metrics={"seed": 6})
        )
        assert spec.content_hash() not in reader
        assert reader.refresh() == 1
        assert spec.content_hash() in reader
        assert reader.get(spec.content_hash()).cached
        writer.close()
        reader.close()

    def test_in_memory_store_roundtrip(self):
        with ResultStore() as store:
            spec = make_spec(seed=7)
            store.put(
                RunRecord(spec=spec, spec_hash=spec.content_hash(),
                          result={}, metrics={})
            )
            assert len(store) == 1
            assert store.hashes() == [spec.content_hash()]


# ---------------------------------------------------------------------------
# Sweep coalescing (real ansatz compilation + batched evolution)
# ---------------------------------------------------------------------------


class TestSweeps:
    def test_concurrent_sweeps_coalesce_into_one_batch(self, tiny_benchmark):
        async def scenario():
            async with SolveService(max_workers=2) as service:
                requests = [
                    SweepRequest(
                        solver="choco-q", benchmark=tiny_benchmark,
                        config={"num_layers": 1},
                        parameter_sets=[[0.1 * i, 0.2 * i]],
                    )
                    for i in range(5)
                ]
                scores = await asyncio.gather(
                    *(service.sweep(request) for request in requests)
                )
                return scores, service.stats()

        scores, stats = asyncio.run(scenario())
        assert stats["sweep_batches"] == 1
        assert stats["sweeps_coalesced"] == 4
        assert all(len(batch) == 1 for batch in scores)

    def test_coalesced_scores_bit_identical_to_solo_evaluation(self, tiny_benchmark):
        compiler = SpecCompiler()
        requests = [
            SweepRequest(
                solver="choco-q", benchmark=tiny_benchmark,
                config={"num_layers": 1},
                parameter_sets=[[0.3 * i + 0.1, 0.7 * i - 0.2]],
            )
            for i in range(4)
        ]
        coalesced = execute_sweep(compiler, requests)
        assert compiler.compilations == 1
        spec = compiler.spec_for(requests[0])
        for request, batch in zip(requests, coalesced):
            solo = batched_expectations(spec, request.parameter_sets)
            assert batch == [float(score) for score in solo]
        assert compiler.compilations == 1  # spec_for above hit the cache

    def test_sweep_reuses_the_structure_a_solve_compiled(self, tiny_benchmark):
        """Solves and sweeps share one structure memo: a sweep on a structure
        a solve already compiled compiles nothing, and a fresh compiler
        counts only its own builds."""
        execute_spec(make_spec(seed=3))
        request = SweepRequest(solver="choco-q", benchmark=tiny_benchmark,
                               config={"num_layers": 1}, parameter_sets=[[0.1, 0.2]])
        compiler = SpecCompiler()
        assert execute_sweep(compiler, [request]) == [
            [float(score) for score in batched_expectations(
                compiler.spec_for(request), request.parameter_sets)]
        ]
        assert compiler.compilations == 0
        other = SweepRequest(solver="choco-q", benchmark=tiny_benchmark,
                             config={"num_layers": 2}, parameter_sets=[[0.1, 0.2, 0.3, 0.4]])
        execute_sweep(compiler, [other])
        assert compiler.compilations == 1
        assert structure_cache_info() == (2, 2, 2)

    def test_mixed_key_batch_rejected(self, tiny_benchmark):
        compiler = SpecCompiler()
        a = SweepRequest(solver="choco-q", benchmark=tiny_benchmark,
                         config={"num_layers": 1}, parameter_sets=[[0.0, 0.0]])
        b = SweepRequest(solver="cyclic-qaoa", benchmark=tiny_benchmark,
                         parameter_sets=[[0.0, 0.0]])
        with pytest.raises(ServiceError, match="coalesce key"):
            execute_sweep(compiler, [a, b])

    def test_solver_without_build_spec_rejected(self, tiny_benchmark, no_spec_solver):
        compiler = SpecCompiler()
        request = SweepRequest(solver=no_spec_solver, benchmark=tiny_benchmark,
                               parameter_sets=[[0.0]])
        with pytest.raises(ServiceError, match="build_spec"):
            compiler.spec_for(request)

    @pytest.mark.parametrize(
        "solver, num_parameters", [("penalty-qaoa", 4), ("hea", 9)]
    )
    def test_baseline_sweeps_equal_sequential_costs(
        self, tiny_benchmark, solver, num_parameters
    ):
        compiler = SpecCompiler()
        rng = np.random.default_rng(5)
        requests = [
            SweepRequest(
                solver=solver, benchmark=tiny_benchmark,
                config={"num_layers": 2},
                parameter_sets=rng.uniform(-np.pi, np.pi, size=(2, num_parameters)),
            )
            for _ in range(3)
        ]
        coalesced = execute_sweep(compiler, requests)
        assert compiler.compilations == 1
        spec = compiler.spec_for(requests[0])
        for request, batch in zip(requests, coalesced):
            sequential = [
                float(np.dot(np.abs(spec.evolve(parameters)) ** 2, spec.cost_diagonal))
                for parameters in request.parameter_sets
            ]
            assert batch == sequential

    def test_sweep_request_roundtrip_promotes_single_vector(self, tiny_benchmark):
        request = SweepRequest(solver="choco-q", benchmark=tiny_benchmark,
                               config={"num_layers": 1},
                               parameter_sets=[0.1, 0.2])
        assert request.parameter_sets.shape == (1, 2)
        restored = SweepRequest.from_dict(request.to_dict())
        assert restored.coalesce_key() == request.coalesce_key()
        np.testing.assert_array_equal(
            restored.parameter_sets, request.parameter_sets
        )


# ---------------------------------------------------------------------------
# execute_group
# ---------------------------------------------------------------------------


class TestExecuteGroup:
    def test_outcomes_isolate_failures_per_spec(self):
        spy = SpyExecutor(poison_seeds=(1,))
        specs = [make_spec(seed=0), make_spec(seed=1), make_spec(seed=2)]
        outcomes = execute_group(specs, spy)
        assert [record is not None for _s, record, _e in outcomes] == [
            True, False, True,
        ]
        assert [error is None for _s, _r, error in outcomes] == [True, False, True]
        assert "poisoned" in str(outcomes[1][2])


# ---------------------------------------------------------------------------
# Clients: in-process smoke (rides tier-1/test-fast) and TCP round trip
# ---------------------------------------------------------------------------


class TestClients:
    def test_service_client_smoke_real_solver(self, tiny_benchmark):
        """End-to-end smoke: dedup + store hit through the real solver path."""

        async def scenario():
            async with SolveService(max_workers=2) as service:
                client = ServiceClient(service)
                spec = make_spec(seed=0, benchmark=tiny_benchmark)
                burst = await asyncio.gather(*(client.solve(spec) for _ in range(4)))
                repeat = await client.solve(spec)
                return burst, repeat, await client.stats()

        transpiles_before = sum(transpile_cache_info())
        burst, repeat, stats = asyncio.run(scenario())
        assert stats["executed"] == 1
        # the one execution transpiled once, through the process-wide memo
        assert (
            stats["transpile_cache_hits"] + stats["transpile_cache_misses"]
            == transpiles_before + 1
        )
        assert stats["deduped"] == 3
        assert stats["store_hits"] == 1
        # the one execution compiled its structure once, into a cold memo
        assert (
            stats["structure_cache_hits"],
            stats["structure_cache_misses"],
            stats["structure_cache_entries"],
        ) == (0, 1, 1)
        assert repeat.cached
        assert repeat.metrics["success_rate"] == burst[0].metrics["success_rate"]

    def test_tcp_round_trip_solve_sweep_stats(self, tiny_benchmark):
        spy = SpyExecutor()

        async def scenario():
            service = await SolveService(execute_fn=spy, max_workers=2).start()
            server = await serve_tcp(service)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with await TCPServiceClient.connect(host, port) as client:
                    assert await client.ping()
                    spec = make_spec(seed=8)
                    burst = await client.solve_many([spec] * 4)
                    repeat = await client.solve(spec)
                    sweep_scores = await client.sweep(
                        SweepRequest(
                            solver="choco-q", benchmark=tiny_benchmark,
                            config={"num_layers": 1},
                            parameter_sets=[[0.1, 0.2], [0.3, 0.4]],
                        )
                    )
                    stats = await client.stats()
                    return burst, repeat, sweep_scores, stats
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        burst, repeat, sweep_scores, stats = asyncio.run(scenario())
        assert len(spy.calls) == 1  # the pipelined burst deduped server-side
        assert all(record.spec_hash == burst[0].spec_hash for record in burst)
        assert repeat.cached
        assert len(sweep_scores) == 2
        assert stats["requests"] == 5

    def test_tcp_unknown_op_and_bad_spec_report_errors(self):
        async def scenario():
            service = await SolveService(execute_fn=SpyExecutor()).start()
            server = await serve_tcp(service)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with await TCPServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceError, match="unknown op"):
                        await client._request({"op": "frobnicate"})
                    with pytest.raises(ServiceError, match="unknown RunSpec"):
                        await client._request(
                            {"op": "solve", "spec": {"bogus_field": 1}}
                        )
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        asyncio.run(scenario())

    def test_tcp_response_over_64_kib_and_its_pipelined_sibling_succeed(self):
        """A record larger than asyncio's default 64 KiB line limit (a
        penalty-QAOA K2 record is ~192 KB) must not kill the client's read
        loop, which would fail every request pipelined beside it."""
        blob = "x" * (200 * 1024)

        def execute(spec: RunSpec) -> RunRecord:
            return RunRecord(
                spec=spec,
                spec_hash=spec.content_hash(),
                result={"blob": blob if spec.seed == 1 else ""},
                metrics={"seed": spec.seed},
            )

        async def scenario():
            service = await SolveService(execute_fn=execute, max_workers=2).start()
            server = await serve_tcp(service)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with await TCPServiceClient.connect(host, port) as client:
                    return await client.solve_many([make_spec(seed=1), make_spec(seed=2)])
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        large, sibling = asyncio.run(scenario())
        assert large.result["blob"] == blob
        assert sibling.metrics == {"seed": 2}

    def test_tcp_request_over_the_frame_limit_spares_its_pipelined_siblings(
        self, monkeypatch
    ):
        """A request line over the server's frame limit gets a structured
        error and the connection keeps reading: the requests pipelined after
        it on the same connection are still answered.  A request over
        asyncio's default 64 KiB line limit but under the frame limit (a
        4000x2 sweep is ~160 KB) is served normally.  The frame limit is
        lowered here so the oversize line stays small."""
        monkeypatch.setattr(
            service_server, "FRAME_LIMIT_BYTES", 1024 * 1024, raising=False
        )
        lines = [
            {"id": 1, "op": "ping", "pad": "x" * (2 * 1024 * 1024)},
            {"id": 2, "op": "ping", "pad": "x" * (200 * 1024)},
            {"id": 3, "op": "ping"},
        ]
        payload = "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")

        async def scenario():
            service = await SolveService(execute_fn=SpyExecutor()).start()
            server = await serve_tcp(service)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(payload)
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in lines]
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                await service.stop()

        responses = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        by_id = {response["id"]: response for response in responses}
        assert set(by_id) == {None, 2, 3}
        assert by_id[None]["ok"] is False
        assert by_id[None]["error"]["type"] == "ServiceError"
        assert "exceeds" in by_id[None]["error"]["message"]
        assert by_id[2] == {"id": 2, "ok": True, "pong": True}
        assert by_id[3] == {"id": 3, "ok": True, "pong": True}
