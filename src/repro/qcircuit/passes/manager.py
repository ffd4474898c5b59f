"""Pass manager: ordered pipelines, fixpoint iteration, per-pass deltas.

``PassManager`` applies an ordered pass list repeatedly until a full round
leaves the circuit unchanged (or ``max_rounds`` is hit — the passes only
ever shrink or reorder, so in practice one or two rounds converge), and
returns a :class:`~repro.qcircuit.passes.report.PassRecord` for every
application that changed the circuit.  Records chain: each ``before`` is the
previous record's ``after``, so every circuit's stats are computed once.

``default_pipeline`` maps the ``TranspileOptions.optimization_level`` knob
to a pipeline:

* **0** — no passes: bit-identical to plain lowering.
* **1** — local peephole only: rotation fusion + inverse cancellation.
* **2** (package default) — commuting-diagonal reordering to expose fusion
  across commuting layers, then ladder re-synthesis (when the basis allows
  ``rzz``/``cp``/``mcp``), then fusion and cancellation, iterated to
  fixpoint.  Re-synthesis runs *before* fusion so it sees the transpiler's
  pristine ladder emissions; fusion then cleans up the leftovers.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import TranspileError
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.passes.base import CircuitPass
from repro.qcircuit.passes.cancellation import InverseCancellationPass
from repro.qcircuit.passes.commutation import CommuteDiagonalPass
from repro.qcircuit.passes.fusion import RotationFusionPass
from repro.qcircuit.passes.report import CircuitStats, PassRecord
from repro.qcircuit.passes.resynthesis import LadderResynthesisPass

#: Highest supported ``optimization_level``.
MAX_OPTIMIZATION_LEVEL = 2

#: The level used when callers do not choose one.
DEFAULT_OPTIMIZATION_LEVEL = 2


class PassManager:
    """Run an ordered pass pipeline to fixpoint, recording per-pass deltas."""

    def __init__(self, passes: Sequence[CircuitPass], max_rounds: int = 4) -> None:
        if max_rounds < 1:
            raise TranspileError("max_rounds must be at least 1")
        self.passes = tuple(passes)
        self.max_rounds = max_rounds

    def run(
        self, circuit: QuantumCircuit
    ) -> tuple[QuantumCircuit, tuple[PassRecord, ...]]:
        """Optimize ``circuit``; return it with the records of what changed."""
        current = circuit
        stats: CircuitStats | None = None  # of ``current``; walked at the first change
        records: list[PassRecord] = []
        for round_index in range(1, self.max_rounds + 1):
            round_changed = False
            for circuit_pass in self.passes:
                before = current.instructions
                rewritten = circuit_pass.run(current)
                if rewritten.instructions == before:
                    continue
                round_changed = True
                after = CircuitStats.from_circuit(rewritten)
                records.append(
                    PassRecord(
                        pass_name=circuit_pass.name,
                        round_index=round_index,
                        before=stats or CircuitStats.from_circuit(current),
                        after=after,
                    )
                )
                current, stats = rewritten, after
            if not round_changed:
                break
        return current, tuple(records)


def default_pipeline(
    optimization_level: int, basis_gates: frozenset[str]
) -> tuple[CircuitPass, ...]:
    """The pass pipeline a given optimization level runs."""
    if not 0 <= optimization_level <= MAX_OPTIMIZATION_LEVEL:
        raise TranspileError(
            f"optimization_level must be between 0 and {MAX_OPTIMIZATION_LEVEL}, "
            f"got {optimization_level}"
        )
    if optimization_level == 0:
        return ()
    if optimization_level == 1:
        return (RotationFusionPass(), InverseCancellationPass())
    passes: list[CircuitPass] = [CommuteDiagonalPass()]
    resynthesis = LadderResynthesisPass(basis_gates)
    if not resynthesis.is_noop:
        passes.append(resynthesis)
    passes.extend((RotationFusionPass(), InverseCancellationPass()))
    return tuple(passes)
