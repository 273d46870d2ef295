"""The benchmark's workloads and their seeded inputs.

Inputs come from the same code the examples and tests use: each
workload calls a :mod:`repro.programs.drivers` entry point with
``run_source`` swapped for a recorder, so that entry point lays out the
integral tensors, registers the super instructions, computes the
numpy reference from :mod:`repro.chem`, and hands back the SIAL source,
config and symbolics *without* running anything.  The benchmark then
compiles and runs them itself, timing each step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
from repro.programs import drivers
from repro.sip import SIPConfig

from tracing import Patches

__all__ = ["WORKERS", "WORKLOADS", "Prepared", "Workload", "prepare"]

#: ``memory_per_worker`` of ``ccsd_spill``: half the ample run's
#: ``mem_peak_bytes`` (75,744 B for CCSD n_basis 6, n_occ 2, segment 2,
#: 2 workers, -O0, sim, at the drivers' default seed 42; block sizes
#: depend only on shapes, so every seed gives the same peak).  The
#: dry-run pinned-only floor of that run is a few hundred bytes.
SPILL_BUDGET_BYTES = 37_872
#: every workload's ranks: one per core of the 2-core reference machine
WORKERS, IO_SERVERS = 2, 1


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # a repro.programs.drivers function
    driver_args: dict[str, Any]
    value: tuple[str, str]  # ("scalar" | "array", name) compared to the reference
    arrays: tuple[str, ...]  # arrays gathered for the bitwise checks
    execution: str = "sim"
    opt_level: int = 0
    segment_size: int = 2
    spill: bool = False
    memory_per_worker: Optional[float] = None


_CCSD_ARRAYS = ("T1", "T2")

#: definitions; why each was chosen is in BENCHMARK.json and INTERACTIONS.md
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ccsd_sim",
            driver="run_ccsd",
            driver_args=dict(n_basis=8, n_occ=3, iterations=1),
            value=("scalar", "ecc"),
            arrays=_CCSD_ARRAYS,
        ),
        Workload(
            name="contract_sim",
            driver="run_paper_contraction",
            driver_args=dict(n_basis=64, n_occ=32),
            value=("array", "R"),
            arrays=("R",),
            segment_size=16,
        ),
        Workload(
            name="ccsd_mp_O2",
            driver="run_ccsd",
            driver_args=dict(n_basis=6, n_occ=2, iterations=1),
            value=("scalar", "ecc"),
            arrays=_CCSD_ARRAYS,
            execution="mp",
            opt_level=2,
        ),
        Workload(
            name="ccsd_spill",
            driver="run_ccsd",
            driver_args=dict(n_basis=6, n_occ=2, iterations=1),
            value=("scalar", "ecc"),
            arrays=_CCSD_ARRAYS,
            spill=True,
            memory_per_worker=SPILL_BUDGET_BYTES,
        ),
    )
}


@dataclass
class Prepared:
    """One workload's generated inputs, ready to compile and run."""

    workload: Workload
    source: str
    config: Any  # repro.sip.SIPConfig
    symbolics: dict[str, float]
    reference: Any  # float or ndarray from the numpy reference

    def config_for(self, **changes: Any) -> Any:
        return dataclasses.replace(self.config, **changes)


class _Recorder:
    """Stands in for ``run_source``: records the call, runs nothing."""

    def __call__(self, source: str, config: Any, symbolics: dict) -> "_Recorder":
        self.source, self.config, self.symbolics = source, config, symbolics
        return self

    def scalar(self, name: str) -> float:
        return 0.0

    def array(self, name: str) -> np.ndarray:
        return np.zeros(0)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate ``workload``'s inputs and numpy reference from ``seed``."""
    config = SIPConfig(
        workers=WORKERS,
        io_servers=IO_SERVERS,
        segment_size=workload.segment_size,
        execution=workload.execution,
        opt_level=workload.opt_level,
        spill=workload.spill,
        memory_per_worker=workload.memory_per_worker,
    )
    recorder = _Recorder()
    with Patches() as patches:
        patches.replace(drivers, "run_source", recorder)
        outcome = getattr(drivers, workload.driver)(
            seed=seed, config=config, **workload.driver_args
        )
    return Prepared(
        workload=workload,
        source=recorder.source,
        config=recorder.config,
        symbolics=dict(recorder.symbolics),
        reference=outcome.reference,
    )
