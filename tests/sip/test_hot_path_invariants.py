"""Golden invariants of the interpreter's per-operand hot path.

CCSD at n_basis 6, n_occ 2, segment 2, 2 workers on the simulator, with
ample memory and with spill on at 37,872 B per worker.  Every pinned
value -- executed instructions, messages, the exact simulated elapsed
time, the transfer-engine, cache and memory-manager counters, and the
SHA-256 of the final T1/T2 amplitudes -- was captured before the hot
path (operand memo keys, ``BlockId`` hashing, cache and spill victim
selection, simulator event keys) was rewritten.  Any change in operand
resolution order, prefetch hints, victim order or event order shows
up here as a changed counter or timestamp.
"""

import hashlib

import numpy as np
import pytest

from repro.programs.drivers import run_ccsd
from repro.sip import SIPConfig

T1_SHA = "33ce5e71a1ceeea65491fc787dac1225b175fee5d3f903671e24f862d77dad31"
T2_SHA = "64a2903713f5717ee6bff782de55683d2985676975ea47046dbf581739a9e3c0"

GOLDEN = {
    "ample": dict(
        memory_per_worker=None,
        elapsed="5.2490139104001905",
        stats=dict(
            instr_executed=68394,
            messages_sent=14189,
            blockio_issued=6457,
            blockio_coalesced=3916,
            blockio_hint_drops=0,
            cache_evictions=6024,
            cache_evicted_before_use=39,
            mem_spills=0,
            mem_faults_in=0,
        ),
    ),
    "spill": dict(
        memory_per_worker=37_872,
        elapsed="41.02317587520715",
        stats=dict(
            instr_executed=68394,
            messages_sent=39675,
            blockio_issued=19183,
            blockio_coalesced=3550,
            blockio_hint_drops=14000,
            cache_evictions=19183,
            cache_evicted_before_use=3136,
            mem_spills=11783,
            mem_faults_in=8582,
        ),
    ),
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_ccsd_hot_path_invariants(case):
    golden = GOLDEN[case]
    budget = golden["memory_per_worker"]
    config = SIPConfig(
        workers=2,
        io_servers=1,
        segment_size=2,
        spill=budget is not None,
        memory_per_worker=budget,
    )
    result = run_ccsd(n_basis=6, n_occ=2, iterations=1, config=config).result
    got = {k: result.stats[k] for k in golden["stats"]}
    assert got == golden["stats"]
    assert repr(result.elapsed) == golden["elapsed"]
    assert _sha(result.array("T1")) == T1_SHA
    assert _sha(result.array("T2")) == T2_SHA
