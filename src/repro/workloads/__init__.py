"""Workload generators (S8–S9): the paper's synthetic update operations,
read/update mixes, scaled TPC-C, and the named access-pattern table
behind the scenario suite (see ``docs/workloads.md``)."""

from .patterns import (
    AccessPattern,
    Trace,
    TraceError,
    TracePattern,
    TraceRecorder,
    load_trace,
    make_pattern,
    pattern_names,
    record_pattern,
)
from .runner import (
    MethodMeasurement,
    RunnerConfig,
    aging_horizon,
    build_workload,
    measure_mix,
    measure_updates,
    warm_to_steady_state,
)
from .synthetic import (
    SyntheticConfig,
    SyntheticWorkload,
    VerificationError,
)

__all__ = [
    "AccessPattern",
    "MethodMeasurement",
    "RunnerConfig",
    "SyntheticConfig",
    "SyntheticWorkload",
    "Trace",
    "TraceError",
    "TracePattern",
    "TraceRecorder",
    "VerificationError",
    "aging_horizon",
    "build_workload",
    "load_trace",
    "make_pattern",
    "measure_mix",
    "measure_updates",
    "pattern_names",
    "record_pattern",
    "warm_to_steady_state",
]
