"""Async solve service and the zero-coordination run_plan farm.

The "millions of users" layer over the experiment API (ROADMAP item 1):

* :class:`~repro.service.store.ResultStore` — the content-hash JSONL cache
  as a shared result store;
* :class:`~repro.service.server.SolveService` — asyncio front end: store
  answers, in-flight dedup, solve grouping and
  ``batched_expectations``-coalesced sweeps over a bounded worker pool
  (:func:`~repro.service.server.serve_tcp` exposes it over TCP,
  ``python -m repro.service`` runs the daemon);
* :mod:`~repro.service.client` — the TCP client;
* :mod:`~repro.service.shard` — shard one plan across machines by content
  hash and merge the shard files idempotently
  (``python -m repro.service.shard``).
"""

from repro.service.client import TCPServiceClient
from repro.service.coalesce import SpecCompiler, SweepRequest, solve_group_key
from repro.service.server import ServiceStats, SolveService, serve_tcp
from repro.service.store import ResultStore

#: Farm-layer exports resolved lazily (PEP 562): importing them here eagerly
#: would put ``repro.service.shard`` in ``sys.modules`` before ``python -m
#: repro.service.shard`` executes it as ``__main__``, tripping runpy's
#: double-import RuntimeWarning on the documented CLI.
_SHARD_EXPORTS = ("merge_shards", "run_shard", "shard_path")


def __getattr__(name: str):
    if name in _SHARD_EXPORTS:
        from repro.service import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ResultStore",
    "ServiceStats",
    "SolveService",
    "SpecCompiler",
    "SweepRequest",
    "TCPServiceClient",
    "merge_shards",
    "run_shard",
    "serve_tcp",
    "shard_path",
    "solve_group_key",
]
