"""Analysis utilities: convergence curves, parallelism profiles, ablation
harness and plain-text reporting used by the benchmark suite."""

from repro.analysis.ablation import (
    ABLATION_ARMS,
    AblationArm,
    AblationRow,
    run_ablation,
)
from repro.analysis.convergence import (
    ConvergenceCurve,
    compare_convergence,
    convergence_curve,
)
from repro.analysis.parallelism import (
    ParallelismProfile,
    parallelism_profile,
    support_trace,
)
from repro.analysis.report import (
    format_table,
    print_table,
)

__all__ = [
    "ABLATION_ARMS",
    "AblationArm",
    "AblationRow",
    "ConvergenceCurve",
    "ParallelismProfile",
    "compare_convergence",
    "convergence_curve",
    "format_table",
    "parallelism_profile",
    "print_table",
    "run_ablation",
    "support_trace",
]
