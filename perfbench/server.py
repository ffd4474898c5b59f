"""Traced solve-service launcher for the ``service-mixed`` workload.

Untraced runs start ``python -m repro.service`` itself.  A traced run starts
this script with the same arguments plus ``--spans PATH``: it wraps the
solve seams (see ``spans.py``), the service's per-spec ``execute_spec``,
``ResultStore.put``, ``SolveService.solve`` (to note when each spec arrived)
and ``execute_sweep``, then runs ``repro.service.__main__.main`` with the
remaining arguments.  Once that returns (on SIGINT) it writes the spans to
``--spans``.  Every second execution is traced; the others are timed whole,
for the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def install_service_seams(tracer, arrivals: dict) -> None:
    """Wrap the service's seams; ``SolveService`` must be built afterwards,
    since it binds ``execute_spec`` as its default ``execute_fn`` then."""
    import repro.service.server as server_module
    from repro.run.plan import RunSpec
    from repro.service.store import ResultStore

    tracer.install_solve_seams()
    counter = itertools.count()
    execute_spec = server_module.execute_spec

    @functools.wraps(execute_spec)
    def traced_execute(spec):
        spec_hash = spec.content_hash()
        traced = next(counter) % 2 == 1
        with tracer.span("service.execute", force=True, op=spec_hash) as attrs:
            attrs["traced"] = traced
            if not traced:
                return execute_spec(spec)
            with tracer.op(spec_hash):
                return execute_spec(spec)

    tracer.patch(server_module, "execute_spec", traced_execute)

    put = ResultStore.__dict__["put"]

    @functools.wraps(put)
    def traced_put(store, record):
        with tracer.span("service.store_put", force=True, op=record.spec_hash):
            return put(store, record)

    tracer.patch(ResultStore, "put", traced_put)

    solve = server_module.SolveService.__dict__["solve"]

    @functools.wraps(solve)
    async def traced_solve(service, spec, *, timeout=None):
        parsed = RunSpec.from_dict(spec) if isinstance(spec, dict) else spec
        arrivals.setdefault(parsed.content_hash(), time.perf_counter())
        return await solve(service, parsed, timeout=timeout)

    tracer.patch(server_module.SolveService, "solve", traced_solve)

    execute_sweep = server_module.execute_sweep

    @functools.wraps(execute_sweep)
    def traced_sweep(compiler, requests):
        before = compiler.compilations
        with tracer.span("service.sweep", force=True) as attrs:
            scores = execute_sweep(compiler, requests)
            attrs["requests"] = len(requests)
            attrs["compiles"] = compiler.compilations - before
            return scores

    tracer.patch(server_module, "execute_sweep", traced_sweep)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    arguments, service_argv = parser.parse_known_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.__main__ import main as service_main

    from spans import Tracer

    tracer = Tracer()
    arrivals: dict[str, float] = {}
    install_service_seams(tracer, arrivals)
    try:
        status = service_main(service_argv)
    finally:
        tracer.uninstall()
        with open(arguments.spans, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "arrivals": arrivals}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
