"""Open-loop ``service-mixed`` workload: one client, one TCP connection.

The benchmark starts ``python -m repro.service`` with two workers and a
JSONL store in a scratch directory of the checkout (``server.py`` on a
traced run), then sends the schedule of ``workloads.service_schedule`` on
time whatever the server does.  All requests of one event go out in a single write, so the
server reads them in one pass of its connection loop and their path (store
hit, dedup join, seed group, sweep batch) is fixed by the schedule.  Each
request is timed from when it was due.

The client reads responses with a 64 MiB line limit: the library's
``TCPServiceClient`` keeps asyncio's 64 KiB default, which a penalty-QAOA K2
response (~192 KB) overflows, so this workload sends choco-q specs only.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import stats
import workloads

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
WORKERS = 2
#: The line ``python -m repro.service`` prints once it accepts connections.
LISTENING = re.compile(r"listening on (?P<host>[^\s:]+):(?P<port>\d+)")
#: Pause between connecting and the first due time.
START_DELAY_S = 0.3
#: How long the client waits for the last responses once the schedule ends.
DRAIN_TIMEOUT_S = 60.0
#: A host-speed reference is timed in a gap between events only when every
#: request sent so far is answered and the next event is at least this far off.
REFERENCE_GAP_S = 0.1


class Server:
    """One solve-service process; ``start`` returns once it has answered a
    ping and the warm-up solves.

    Untraced it is ``python -m repro.service``; traced it is ``server.py``,
    which runs the same entry point with the span wrappers installed.
    """

    def __init__(self, workdir: Path, name: str, trace: bool) -> None:
        self.store = workdir / f"{name}.jsonl"
        self.spans_path = workdir / f"{name}-spans.json" if trace else None
        service_args = ["--host", "127.0.0.1", "--port", "0", "--workers", str(WORKERS),
                        "--store", str(self.store)]
        if self.spans_path is None:
            self.command = [sys.executable, "-m", "repro.service", *service_args]
        else:
            self.command = [sys.executable, str(HERE / "server.py"),
                            "--spans", str(self.spans_path), *service_args]
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self, warmup: list[dict], timeout_s: float = 60.0) -> float:
        """Start the service and run the ``warmup`` requests one by one;
        return the seconds from spawn to the last warm-up answer."""
        begin = time.perf_counter()
        environment = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SOURCES), str(HERE)])}
        self.process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, text=True, env=environment,
            # SIGINT stops the service; a benchmark started in the background
            # would otherwise pass its ignored SIGINT on.
            preexec_fn=_default_sigint,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        line = self.process.stdout.readline() if ready else ""
        match = LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"solve service did not start (got {line!r})")
        self.address = (match["host"], int(match["port"]))
        with socket.create_connection(self.address, timeout=timeout_s) as connection:
            replies = connection.makefile("rb")
            for request_id, payload in enumerate([{"op": "ping"}, *warmup]):
                connection.sendall((json.dumps({"id": request_id, **payload}) + "\n").encode())
                reply = replies.readline()
                if not json.loads(reply).get("ok"):
                    self.stop()
                    raise RuntimeError(f"solve service set-up request failed: {reply[:200]!r}")
        return time.perf_counter() - begin

    def status(self) -> dict:
        return stats.process_status(self.process.pid)

    def stop(self) -> None:
        """Stop the service with SIGINT, as a user would, and wait for it."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()

    def spans(self) -> dict:
        if self.spans_path is None or not self.spans_path.exists():
            return {"spans": [], "arrivals": {}}
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


async def drive(server: Server, events) -> dict:
    """Send the schedule on time; collect every response."""
    reader, writer = await asyncio.open_connection(*server.address, limit=1 << 26)
    loop = asyncio.get_running_loop()
    waiting: dict[int, asyncio.Future] = {}
    ids = itertools.count(1)

    async def read_loop() -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            done = time.perf_counter()
            message = json.loads(line)
            future = waiting.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((done, len(line), message))

    reader_task = loop.create_task(read_loop())

    async def send(payloads) -> list[asyncio.Future]:
        futures, lines = [], []
        for payload in payloads:
            request_id = next(ids)
            futures.append(waiting.setdefault(request_id, loop.create_future()))
            lines.append(json.dumps({"id": request_id, **payload}))
        writer.write(("\n".join(lines) + "\n").encode("utf-8"))
        await writer.drain()
        return futures

    async def server_stats() -> dict:
        (future,) = await send([{"op": "stats"}])
        return (await asyncio.wait_for(future, DRAIN_TIMEOUT_S))[2]["stats"]

    try:
        stats_before = await server_stats()
        status_before = server.status()
        steal_before = stats.cpu_times()
        origin = time.perf_counter() + START_DELAY_S
        sent_at, requests, reference_ms = [], [], []
        for event in events:
            due = origin + event.due
            sampled = False
            while (delay := due - time.perf_counter()) > 0:
                if waiting:
                    await asyncio.wait(list(waiting.values()), timeout=delay)
                elif not sampled and delay > REFERENCE_GAP_S:
                    # the server is idle: time the reference as a batch run does
                    reference_ms.append(hostspeed.sample_ms())
                    sampled = True
                else:
                    await asyncio.sleep(delay)
            sent_at.append(time.perf_counter())
            for future, payload in zip(await send(event.requests), event.requests):
                requests.append((event, payload, due, future))
        await asyncio.wait_for(
            asyncio.gather(*(future for *_rest, future in requests)), DRAIN_TIMEOUT_S
        )
        status_after = server.status()
        steal = stats.steal_pct(steal_before, stats.cpu_times())
        stats_after = await server_stats()
    finally:
        writer.close()
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
        await writer.wait_closed()

    return {
        "origin": origin,
        "due": [origin + event.due for event in events],
        "sent": sent_at,
        "responses": [
            (event, payload, due, *future.result()) for event, payload, due, future in requests
        ],
        "stats": {key: stats_after[key] - stats_before.get(key, 0)
                  for key in stats_after if isinstance(stats_after[key], int)},
        "server_cpu_s": status_after["cpu_s"] - status_before["cpu_s"],
        "peak_rss_mb": status_after["peak_rss_mb"],
        "steal_pct": steal,
        "reference_ms": reference_ms,
    }


def _strip_latency(metrics: dict) -> dict:
    return {key: value for key, value in metrics.items() if key != "latency_s"}


def check_outputs(result: dict, events, config: dict) -> tuple[list[str], set[int]]:
    """Every output check of the workload; returns messages and the
    positions of responses found wrong."""
    from repro.run.plan import RunSpec, execute_spec
    from repro.run.problems import resolve_benchmark
    from repro.run.registry import make_solver
    from repro.solvers.variational import batched_expectations

    errors: list[str] = []
    wrong: set[int] = set()
    by_hash: dict[str, dict] = {}
    ansatz: dict[tuple, object] = {}
    for position, (event, payload, _due, _done, _size, message) in enumerate(result["responses"]):
        if not message.get("ok"):
            errors.append(f"{event.kind} request failed: {message.get('error')}")
            wrong.add(position)
            continue
        if payload["op"] == "solve":
            record = message["record"]
            metrics = record["metrics"]
            if abs(metrics["in_constraints_rate"] - 1.0) > 1e-9:
                errors.append(f"choco-q in_constraints_rate {metrics['in_constraints_rate']!r} != 1")
                wrong.add(position)
            first = by_hash.setdefault(record["spec_hash"], metrics)
            if first != metrics:
                errors.append(f"{event.kind}: spec {record['spec_hash']} answered differently")
                wrong.add(position)
            if event.kind in ("write", "dedup", "group") and first is metrics:
                direct = execute_spec(RunSpec.from_dict(payload["spec"])).metrics
                if _strip_latency(direct) != _strip_latency(metrics):
                    errors.append(f"{event.kind}: service metrics {metrics} != direct {direct}")
                    wrong.add(position)
        else:
            request = payload["request"]
            key = (request["benchmark"], request["case_index"])
            if key not in ansatz:
                solver = make_solver("choco-q", dict(config))
                ansatz[key] = solver.build_spec(resolve_benchmark(*key))[0]
            expected = [float(score) for score in batched_expectations(ansatz[key], request["parameter_sets"])]
            if [float(score) for score in message["scores"]] != expected:
                errors.append(f"sweep on {key}: scores differ from batched_expectations")
                wrong.add(position)

    expected_counts = workloads.expected_counts(events)
    for key, value in expected_counts.items():
        if result["stats"].get(key) != value:
            errors.append(f"stats {key}: server {result['stats'].get(key)} != schedule {value}")
    for key in ("failures", "timeouts"):
        if result["stats"].get(key):
            errors.append(f"stats {key}: {result['stats'][key]}")
    return errors, wrong


def service_layer_metrics(result: dict, server_trace: dict) -> dict:
    """Per-layer service metrics from the stats deltas, the client's per-path
    latencies and the launcher's spans."""
    counters = result["stats"]
    solves = max(counters.get("requests", 0), 1)
    path_ms: dict[str, list[float]] = defaultdict(list)
    for event, _payload, due, done, _size, _message in result["responses"]:
        path_ms[event.kind].append((done - due) * 1e3)
    sweep_ms = path_ms["sweep-hot"] + path_ms["sweep-cold"]

    spans = server_trace["spans"]
    arrivals = server_trace["arrivals"]
    execute = [span for span in spans if span[0] == "service.execute" and span[2] is not None]
    traced_ms = [(span[2] - span[1]) * 1e3 for span in execute if span[5].get("traced")]
    untraced_ms = [(span[2] - span[1]) * 1e3 for span in execute if not span[5].get("traced")]
    queue_ms = [(span[1] - arrivals[span[4]]) * 1e3 for span in execute if span[4] in arrivals]
    puts = [(span[2] - span[1]) * 1e3 for span in spans if span[0] == "service.store_put" and span[2] is not None]
    sweeps = [span[5] for span in spans if span[0] == "service.sweep" and span[2] is not None]
    return {
        "service.hit_ratio": counters.get("store_hits", 0) / solves,
        "service.dedup_ratio": counters.get("deduped", 0) / solves,
        "service.group_ratio": counters.get("solves_coalesced", 0) / solves,
        "service.sweep_batch_size": counters.get("sweep_requests", 0) / max(counters.get("sweep_batches", 0), 1),
        "service.sweep_compiles": float(sum(sweep.get("compiles", 0) for sweep in sweeps)),
        "service.failures": float(counters.get("failures", 0)),
        "service.timeouts": float(counters.get("timeouts", 0)),
        "service.hit_ms_p50": stats.median(path_ms["read"]),
        "service.sweep_ms_p50": stats.median(sweep_ms),
        "service.exec_ms_p50": stats.median(path_ms["write"]),
        "service.exec_ms_max": max(path_ms["write"], default=0.0),
        "service.response_kb_max": max((size for *_rest, size, _m in result["responses"]), default=0) / 1024,
        "service.execute_ms": stats.mean(traced_ms + untraced_ms),
        "service.store_put_ms": stats.mean(puts),
        "service.queue_wait_ms_p50": stats.median(queue_ms),
        "trace.overhead_pct": (
            100.0 * (stats.median(traced_ms) / stats.median(untraced_ms) - 1.0)
            if traced_ms and untraced_ms
            else 0.0
        ),
    }


def run(seed: int, seconds: float, trace: bool, setup_samples: int, scratch: Path) -> dict:
    """Run ``service-mixed``: set-up samples, the schedule, then the checks."""
    from harness import lineup_configs

    from spans import solve_layer_metrics

    config = {**lineup_configs()["choco-q"], "backend": "subspace"}
    events = workloads.service_schedule(seed, seconds, config)
    workdir = scratch / f"service-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    servers: list[Server] = []
    warmup = workloads.service_warmup(config)

    def start_server() -> float:
        if servers:
            servers[-1].stop()
        servers.append(Server(workdir, f"store-{len(servers)}", trace))
        return servers[-1].start(warmup)

    try:
        # Set-up is sampled by starting the service several times; the last
        # one serves the run.
        setup_s, setup_reference_ms = hostspeed.around(start_server, setup_samples)
        result = asyncio.run(drive(servers[-1], events))
        servers[-1].stop()
        server_trace = servers[-1].spans()
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    errors, wrong = check_outputs(result, events, config)
    responses = result["responses"]
    latencies_ms = [
        latency_s * 1e3
        for latency_s in stats.latencies_from_due(
            [due for _e, _p, due, _d, _s, _m in responses],
            [done for _e, _p, _due, done, _s, _m in responses],
        )
    ]
    first_due = result["origin"]
    last_done = max(done for _e, _p, _due, done, _s, _m in responses)
    wall_s = last_done - first_due
    limit = workloads.LATENCY_LIMIT_MS[workloads.SERVICE_WORKLOAD]
    good = sum(
        position not in wrong and ms <= limit for position, ms in enumerate(latencies_ms)
    )
    failed = sum(not message.get("ok") for *_rest, message in responses)

    # Quality means over the distinct structures solved (one record each),
    # a set the schedule fixes independently of the seed, in a fixed order
    # so that the sums round the same way on every run.
    structures: dict[tuple, dict] = {}
    for event, payload, _due, _done, _size, message in responses:
        if payload["op"] == "solve" and message.get("ok"):
            spec = payload["spec"]
            structures.setdefault((spec["benchmark"], spec["case_index"]), message["record"])
    records = [structures[key] for key in sorted(structures)]
    late_s = stats.lateness(result["due"], result["sent"])
    p90 = stats.tail_percentile(latencies_ms, 90)
    reference_ms = result["reference_ms"]
    per_layer = {
        "op_ms_p90": p90 if p90 is not None else 0.0,
        "solvers.iterations": stats.mean([record["metrics"]["iterations"] for record in records]),
        "qcircuit.two_qubit_gates": stats.mean([record["result"]["num_two_qubit_gates"] for record in records]),
        "solvers.modeled_latency_s": stats.mean([record["metrics"]["latency_s"] for record in records]),
        "loadgen.late_ms_p50": stats.median(late_s) * 1e3,
        "loadgen.late_ms_max": max(late_s) * 1e3,
        "process.cpu_ms_per_op": result["server_cpu_s"] * 1e3 / len(responses),
        "process.steal_pct": result["steal_pct"],
        "host.reference_ms": stats.median(reference_ms),
    }
    if trace:
        per_layer.update(solve_layer_metrics(server_trace["spans"]))
        per_layer.update(service_layer_metrics(result, server_trace))
    return {
        "attempted": len(responses),
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "setup_reference_ms": setup_reference_ms,
        # The rates follow the schedule, not the host, so only the latency is
        # scaled to nominal host speed (see hostspeed.py).
        "end_to_end": {
            "ops_per_s": len(responses) / wall_s,
            "op_ms_p50": stats.median(latencies_ms) * hostspeed.scale(reference_ms),
            "goodput_per_s": good / wall_s,
            **{
                key: stats.mean([record["metrics"][key] for record in records])
                for key in ("success_rate", "in_constraints_rate", "arg")
            },
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "per_layer": per_layer,
        "spans": server_trace["spans"],
        "diagnostics": {
            "events": len(events),
            "requests": len(responses),
            "structures": len(records),
            "wall_s": wall_s,
            "raw": {"op_ms_p50": stats.median(latencies_ms)},
            "host_reference_ms": stats.median(reference_ms),
            "host_reference_samples": len(reference_ms),
            "latency_limit_ms": limit,
            "lateness_growth_ms": stats.lateness_growth(late_s) * 1e3,
            "kinds": {kind: sum(event.kind == kind for event in events)
                      for kind, _ in workloads.EXEC_MIX + workloads.FAST_MIX},
            "stats": result["stats"],
        },
    }
