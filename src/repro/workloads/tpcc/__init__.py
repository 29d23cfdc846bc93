"""Scaled TPC-C workload for Experiment 7 / Figure 18 (docs/paper-map.md,
"Substitutions")."""

from .driver import TpccMeasurement, estimate_database_pages, run_tpcc
from .loader import Table, TpccDatabase
from .schema import TEST_SCALE, TpccScale
from .transactions import MIX, TpccWorkload, TxnCounts

__all__ = [
    "MIX",
    "TEST_SCALE",
    "Table",
    "TpccDatabase",
    "TpccMeasurement",
    "TpccScale",
    "TpccWorkload",
    "TxnCounts",
    "estimate_database_pages",
    "run_tpcc",
]
