"""Tests for the run_plan correctness batch and the sharded farm layer.

Covers the intra-plan duplicate-hash fix (execute once, fan the record out),
failure reporting that names the failing spec, the ``executed/pending
(+cached)`` progress accounting, the O_APPEND single-write JSONL sink under
concurrent appenders, hash-ownership plan sharding, and the idempotent
shard-file merge — including the acceptance check that a 3-shard farm run,
merged, is bit-identical in metrics to one single-process ``run_plan``.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.exceptions import PlanExecutionError, ProblemError, SolverError
from repro.run import (
    ExperimentPlan,
    RunSpec,
    register_benchmark,
    run_plan,
    unregister_benchmark,
)
from repro.run import plan as plan_module
from repro.run.jsonl import JsonlSink, load_jsonl_records
from repro.run.plan import merge_records, shard_owner, shard_plan
from repro.service import merge_shards, run_shard, shard_path
from repro.service.shard import main as shard_main
from test_run_api import deterministic_metrics, tiny_problem

BENCH = "shard-tiny-one-hot"


@pytest.fixture
def tiny_benchmark():
    register_benchmark(BENCH, tiny_problem, replace=True)
    yield BENCH
    unregister_benchmark(BENCH)


def make_spec(seed: int = 0, label: "str | None" = None) -> RunSpec:
    return RunSpec(
        solver="choco-q", benchmark=BENCH, config={"num_layers": 1},
        seed=seed, shots=64, max_iterations=6, label=label,
    )


def farm_plan(seeds=(0, 1, 2, 3, 4, 5)) -> ExperimentPlan:
    return ExperimentPlan.grid(
        solvers=("choco-q", "cyclic-qaoa"),
        benchmarks=[BENCH],
        seeds=seeds,
        configs={name: {"num_layers": 1} for name in ("choco-q", "cyclic-qaoa")},
        shots=64,
        max_iterations=6,
        name="farm",
    )


# ---------------------------------------------------------------------------
# Duplicate-hash specs inside one plan
# ---------------------------------------------------------------------------


class TestDuplicateSpecs:
    def test_duplicate_hash_executes_once_and_fans_out(
        self, tiny_benchmark, monkeypatch
    ):
        executed = []
        real_execute = plan_module.execute_spec

        def counting(spec):
            executed.append(spec.content_hash())
            return real_execute(spec)

        monkeypatch.setattr(plan_module, "execute_spec", counting)
        # Same computation under three labels plus one genuinely new spec.
        plan = ExperimentPlan(specs=[
            make_spec(seed=0, label="first"),
            make_spec(seed=0, label="second"),
            make_spec(seed=1),
            make_spec(seed=0, label="third"),
        ])
        records = run_plan(plan)
        assert len(executed) == 2  # one per unique content hash
        assert len(records) == 4  # but every index got its record
        first, second, other, third = records
        assert first.spec_hash == second.spec_hash == third.spec_hash
        assert other.spec_hash != first.spec_hash
        # Fan-out copies share the payload but keep their own labelled spec.
        assert second.result == first.result and second.metrics == first.metrics
        assert [r.spec.label for r in records] == ["first", "second", None, "third"]

    def test_duplicate_hash_written_once_to_jsonl(self, tiny_benchmark, tmp_path):
        path = tmp_path / "plan.jsonl"
        plan = ExperimentPlan(specs=[make_spec(seed=0, label="a"),
                                     make_spec(seed=0, label="b")])
        run_plan(plan, jsonl_path=path)
        assert len(path.read_text().splitlines()) == 1


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------


class TestFailureReporting:
    @pytest.fixture
    def broken_benchmark(self):
        def broken():
            raise ProblemError("factory exploded")

        register_benchmark("broken-bench", broken, replace=True)
        yield "broken-bench"
        unregister_benchmark("broken-bench")

    def test_sequential_failure_names_the_spec(
        self, tiny_benchmark, broken_benchmark
    ):
        bad = RunSpec(solver="choco-q", benchmark=broken_benchmark,
                      seed=0, label="the-culprit")
        plan = ExperimentPlan(specs=[make_spec(seed=0), bad])
        with pytest.raises(PlanExecutionError) as excinfo:
            run_plan(plan)
        assert "the-culprit" in str(excinfo.value)
        assert bad.content_hash() in str(excinfo.value)
        assert excinfo.value.failures == [{
            "display_name": "the-culprit",
            "spec_hash": bad.content_hash(),
            "error": "factory exploded",
        }]
        assert isinstance(excinfo.value.__cause__, ProblemError)

    def test_parallel_collects_every_failure(
        self, tiny_benchmark, broken_benchmark, tmp_path
    ):
        bad = [
            RunSpec(solver="choco-q", benchmark=broken_benchmark, seed=seed)
            for seed in (0, 1)
        ]
        plan = ExperimentPlan(specs=[make_spec(seed=0), *bad, make_spec(seed=1)])
        path = tmp_path / "plan.jsonl"
        with pytest.raises(PlanExecutionError) as excinfo:
            run_plan(plan, max_workers=2, jsonl_path=path)
        assert len(excinfo.value.failures) == 2
        assert {f["spec_hash"] for f in excinfo.value.failures} == {
            spec.content_hash() for spec in bad
        }
        # Both healthy specs still reached the sink before the raise.
        assert len(load_jsonl_records(path)) == 2

    def test_one_failure_policy_for_every_worker_count(
        self, tiny_benchmark, broken_benchmark, tmp_path
    ):
        """A failing spec neither stops the specs after it nor keeps them out
        of the sink, in-process or pooled."""
        bad = RunSpec(solver="choco-q", benchmark=broken_benchmark, seed=0)
        plan = ExperimentPlan(specs=[bad, make_spec(seed=0)])
        outcomes = {}
        for max_workers in (1, 2):
            path = tmp_path / f"plan-{max_workers}.jsonl"
            with pytest.raises(PlanExecutionError) as excinfo:
                run_plan(plan, max_workers=max_workers, jsonl_path=path)
            assert isinstance(excinfo.value.__cause__, ProblemError)
            sink = {
                spec_hash: deterministic_metrics(plan_module.RunRecord.from_dict(record))
                for spec_hash, record in load_jsonl_records(path).items()
            }
            outcomes[max_workers] = (excinfo.value.failures, sink)
        assert outcomes[1] == outcomes[2]
        failures, sink = outcomes[1]
        assert [failure["spec_hash"] for failure in failures] == [bad.content_hash()]
        assert list(sink) == [make_spec(seed=0).content_hash()]


# ---------------------------------------------------------------------------
# Progress accounting
# ---------------------------------------------------------------------------


class TestProgress:
    def test_progress_separates_executed_from_cached(
        self, tiny_benchmark, tmp_path, capsys
    ):
        path = tmp_path / "plan.jsonl"
        warm = ExperimentPlan(specs=[make_spec(seed=0)], name="probe")
        run_plan(warm, jsonl_path=path)
        plan = ExperimentPlan(
            specs=[make_spec(seed=0), make_spec(seed=1), make_spec(seed=2)],
            name="probe",
        )
        capsys.readouterr()
        run_plan(plan, jsonl_path=path, progress=True)
        lines = capsys.readouterr().out.strip().splitlines()
        # Pre-existing cache hits are not this run's completions: two lines,
        # counting executed out of *pending*, with the hits shown separately.
        assert lines == [
            "[probe] executed 1/2 (+1 cached) choco-q@shard-tiny-one-hot",
            "[probe] executed 2/2 (+1 cached) choco-q@shard-tiny-one-hot",
        ]


# ---------------------------------------------------------------------------
# JSONL sink: O_APPEND single-write appends
# ---------------------------------------------------------------------------


def _append_worker(path: str, worker: int, count: int, padding: int) -> None:
    with JsonlSink(path) as sink:
        for index in range(count):
            sink.append({"worker": worker, "index": index, "pad": "x" * padding})


class TestJsonlSink:
    def test_append_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        with JsonlSink(path) as sink:
            sink.append({"spec_hash": "aa", "value": 1})
            sink.append({"spec_hash": "bb", "value": 2})
        assert len(path.read_text().splitlines()) == 2
        assert set(load_jsonl_records(path)) == {"aa", "bb"}

    def test_concurrent_appends_never_split_records(self, tmp_path):
        """Forked appenders interleave lines, never bytes within a line.

        The padding pushes each record well past typical buffered-IO chunk
        sizes; with the old write+flush sink this reliably produced torn
        lines, with O_APPEND single-write appends every line parses.
        """
        path = tmp_path / "stress.jsonl"
        context = multiprocessing.get_context("fork")
        workers, count, padding = 4, 50, 9000
        processes = [
            context.Process(
                target=_append_worker, args=(str(path), worker, count, padding)
            )
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        lines = path.read_text().splitlines()
        assert len(lines) == workers * count
        seen = set()
        for line in lines:
            payload = json.loads(line)  # a torn line would raise here
            assert len(payload["pad"]) == padding
            seen.add((payload["worker"], payload["index"]))
        assert len(seen) == workers * count


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


class TestShardPlan:
    def test_shards_partition_the_resolved_plan(self, tiny_benchmark):
        plan = farm_plan(seeds=(None,) * 6)  # derived seeds must not break this
        resolved = {spec.content_hash() for spec in plan.resolved_specs()}
        shards = [shard_plan(plan, 3, index) for index in range(3)]
        shard_hashes = [
            {spec.content_hash() for spec in shard.specs} for shard in shards
        ]
        assert set().union(*shard_hashes) == resolved
        assert sum(len(hashes) for hashes in shard_hashes) == len(resolved)
        assert shards[0].name == "farm-shard0of3"

    def test_ownership_is_a_pure_function_of_the_hash(self):
        assert shard_owner("00000000000000ff", 4) == 0xFF % 4
        for num_shards in (1, 2, 3, 7):
            owners = {shard_owner(f"{value:016x}", num_shards) for value in range(64)}
            assert owners <= set(range(num_shards))

    def test_shard_validation(self, tiny_benchmark):
        plan = farm_plan()
        with pytest.raises(SolverError, match="num_shards"):
            shard_plan(plan, 0, 0)
        with pytest.raises(SolverError, match="shard_index"):
            shard_plan(plan, 3, 3)

    def test_three_shard_farm_matches_single_process_run(
        self, tiny_benchmark, tmp_path
    ):
        """The acceptance check: shard, run, merge == one run_plan."""
        plan = farm_plan()
        single = run_plan(plan)

        shard_dir = tmp_path / "shards"
        for index in range(3):
            run_shard(plan, 3, index, shard_dir)
        merged_path = tmp_path / "merged.jsonl"
        merged = merge_shards(shard_dir, output_path=merged_path)
        assert len(merged) == len(plan)

        # Replaying the full plan against the merged file re-executes
        # nothing and returns records bit-identical in metrics.
        replay = run_plan(plan, jsonl_path=merged_path)
        assert all(record.cached for record in replay)
        assert [deterministic_metrics(r) for r in replay] == [
            deterministic_metrics(r) for r in single
        ]

    def test_rerunning_a_shard_resumes_from_its_file(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        plan = farm_plan()
        shard_dir = tmp_path / "shards"
        first = run_shard(plan, 3, 0, shard_dir)

        def forbidden(spec):  # pragma: no cover - failing is the assertion
            raise AssertionError("resumed shard re-executed a cached spec")

        monkeypatch.setattr(plan_module, "execute_spec", forbidden)
        second = run_shard(plan, 3, 0, shard_dir)
        assert len(second) == len(first)
        assert all(record.cached for record in second)


class TestMergeRecords:
    def _write_jsonl(self, path, payloads):
        with JsonlSink(path) as sink:
            for payload in payloads:
                sink.append(payload)

    def test_merge_is_idempotent_with_overlapping_files(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write_jsonl(a, [{"spec_hash": "h1", "value": 1},
                              {"spec_hash": "h2", "value": 2}])
        # b overlaps a on h2 (identical payload: content-addressed records)
        # and adds h3.
        self._write_jsonl(b, [{"spec_hash": "h2", "value": 2},
                              {"spec_hash": "h3", "value": 3}])
        once = merge_records([a, b])
        assert set(once) == {"h1", "h2", "h3"}
        assert merge_records([a, b, a, b]) == once
        # Merged output re-merged with the inputs is still a fixed point.
        merged_path = tmp_path / "merged.jsonl"
        merge_records([a, b], output_path=merged_path)
        assert merge_records([merged_path, a, b]) == once

    def test_missing_paths_are_skipped(self, tmp_path):
        a = tmp_path / "a.jsonl"
        self._write_jsonl(a, [{"spec_hash": "h1"}])
        assert set(merge_records([a, tmp_path / "never-written.jsonl"])) == {"h1"}

    def test_merge_shards_requires_shard_files(self, tmp_path):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="no shard files"):
            merge_shards(tmp_path)


# ---------------------------------------------------------------------------
# Plan serialization + shard CLI
# ---------------------------------------------------------------------------


class TestPlanSerialization:
    def test_plan_round_trips_through_dict(self, tiny_benchmark):
        plan = farm_plan(seeds=(0, None))
        restored = ExperimentPlan.from_dict(plan.to_dict())
        assert restored.name == plan.name
        assert restored.base_seed == plan.base_seed
        assert restored.specs == plan.specs
        # Derived seeds resolve identically on both sides of the wire.
        assert [s.seed for s in restored.resolved_specs()] == [
            s.seed for s in plan.resolved_specs()
        ]

    def test_shard_cli_run_and_merge(self, tiny_benchmark, tmp_path, capsys):
        plan = farm_plan(seeds=(0,))
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_dict()))
        shard_dir = tmp_path / "shards"
        for index in range(2):
            assert shard_main([
                "run", "--plan", str(plan_file),
                "--num-shards", "2", "--shard-index", str(index),
                "--directory", str(shard_dir),
            ]) == 0
            assert os.path.exists(shard_path(shard_dir, 2, index))
        merged_path = tmp_path / "merged.jsonl"
        assert shard_main([
            "merge", "--directory", str(shard_dir), "--output", str(merged_path),
        ]) == 0
        assert len(load_jsonl_records(merged_path)) == len(plan)
        assert f"merged {len(plan)} record(s)" in capsys.readouterr().out
