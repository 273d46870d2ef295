"""Unit tests for the unified per-rank MemoryManager.

Covers the victim cascade (clean cache replicas before spills), the
pinned-only OutOfBlockMemory floor, spill/fault-in round trips, adopted
input accounting, scratch capacity limits, simulated scratch time, and
injected scratch disk faults.
"""

import numpy as np
import pytest

from repro.machines import LAPTOP
from repro.simmpi.faults import FaultPlan, ResilienceStats
from repro.sip.blocks import Block, BlockId, block_nbytes
from repro.sip.config import SIPError
from repro.sip.memman import SPILL_ORDER, MemoryManager
from repro.sip.memory import OutOfBlockMemory

SHAPE = (4,)  # 32 B per float64 block
NBYTES = block_nbytes(SHAPE)


def bid(i):
    return BlockId(0, (i,))


def manager(budget_blocks=4, **kwargs):
    kwargs.setdefault("spill", True)
    return MemoryManager(
        budget_blocks * NBYTES,
        real=True,
        name="test",
        cache_blocks=8,
        nbytes_of=lambda block_id: NBYTES,
        **kwargs,
    )


def fill(mm, i, kind="temp"):
    """Allocate one registered pool block whose data encodes `i`."""
    block = mm.allocate(SHAPE)
    block.data[:] = float(i)
    mm.register(bid(i), block, kind)
    return block


def test_legacy_mode_pool_enforces_budget():
    mm = manager(budget_blocks=2, spill=False)
    fill(mm, 1)
    fill(mm, 2)
    with pytest.raises(OutOfBlockMemory):
        mm.allocate(SHAPE)
    assert mm.stats.cascades == 0  # legacy mode never cascades


def test_spill_makes_room_and_fault_in_restores_data():
    mm = manager(budget_blocks=2)
    b1 = fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # budget is 2 blocks: one victim must spill
    assert mm.stats.spills == 1
    assert mm.spilled_blocks == 1
    assert b1.data is None  # LRU-registered victim parked on scratch
    assert mm.bytes_in_use <= mm.budget_bytes
    mm.free(bid(3), mm._spillable[bid(3)][0])
    mm.touch(bid(1))
    assert mm.stats.faults_in == 1
    assert b1.data is not None
    np.testing.assert_array_equal(b1.data, np.full(SHAPE, 1.0))


def test_cascade_drops_clean_cache_before_spilling():
    mm = manager(budget_blocks=2)
    mm.cache_spill_ok = True
    mm.cache.insert_ready(bid(10), Block(SHAPE, np.zeros(SHAPE)))
    fill(mm, 1)
    fill(mm, 2)  # over budget: the clean replica must go first
    assert mm.stats.pressure_evictions == 1
    assert mm.stats.spills == 0
    assert bid(10) not in mm.cache


def test_spill_priority_order():
    assert SPILL_ORDER == ("temp", "local", "static", "owned")
    mm = manager(budget_blocks=3)
    owned = fill(mm, 1, kind="distributed")
    static = fill(mm, 2, kind="static")
    temp = fill(mm, 3, kind="temp")
    fill(mm, 4)  # one block over: the temp must be victimised first
    assert temp.data is None
    assert static.data is not None
    assert owned.data is not None


def test_pinned_blocks_survive_the_cascade():
    mm = manager(budget_blocks=2)
    pinned = fill(mm, 1)
    mm.pin_instr(bid(1))
    fill(mm, 2)
    fill(mm, 3)
    assert pinned.data is not None  # block 2 spilled instead
    mm.clear_instr_pins()
    assert not mm.pinned


def test_oom_only_when_pinned_floor_exceeds_budget():
    mm = manager(budget_blocks=2)
    fill(mm, 1)
    fill(mm, 2)
    mm.pin_instr(bid(1))
    mm.pin_instr(bid(2))
    with pytest.raises(OutOfBlockMemory, match="pinned and in-flight"):
        mm.allocate(SHAPE)
    assert mm.stats.oom_refusals == 1
    mm.clear_instr_pins()
    mm.allocate(SHAPE)  # same request succeeds once the pins are gone
    assert mm.stats.spills >= 1


def test_adopt_and_free_accounting():
    mm = manager(budget_blocks=4)
    block = Block(SHAPE, np.ones(SHAPE))
    mm.adopt(bid(1), block, "static")
    assert mm.adopted_bytes == NBYTES
    assert mm.bytes_in_use == NBYTES
    mm.free(bid(1), block)
    assert mm.adopted_bytes == 0
    assert mm.bytes_in_use == 0
    assert mm.pool.stats.frees == 0  # adopted blocks never hit the pool


def test_scratch_capacity_limits_spilling():
    mm = manager(budget_blocks=2, spill_capacity=float(NBYTES))
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # first spill fits on scratch
    assert mm.stats.spills == 1
    # scratch is now full; the next pressure event finds no victim and,
    # with everything else resident, the budget is genuinely exceeded
    with pytest.raises(OutOfBlockMemory):
        fill(mm, 4)


def test_scratch_io_charges_time_debt():
    mm = manager(budget_blocks=2, machine=LAPTOP)
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)
    assert mm.time_debt > 0.0
    debt = mm.take_time_debt()
    assert debt > 0.0
    assert mm.time_debt == 0.0


def test_no_machine_means_no_time_debt():
    mm = manager(budget_blocks=2)
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)
    assert mm.stats.spills == 1
    assert mm.time_debt == 0.0


def test_scratch_faults_are_retried_and_counted():
    plan = FaultPlan(seed=3, disk_write_error_rate=1.0, max_disk_errors=2)
    res = ResilienceStats()
    mm = manager(
        budget_blocks=2,
        machine=LAPTOP,
        faults=plan,
        fault_device="scratch0",
        resilience=res,
    )
    fill(mm, 1)
    fill(mm, 2)
    fill(mm, 3)  # spill hits two injected write errors, then succeeds
    assert mm.stats.spills == 1
    assert mm.stats.spill_write_retries == 2
    assert res.writeback_retries == 2
    assert plan.stats.disk_write_errors == 2


def test_scratch_fault_gives_up_after_retry_limit():
    plan = FaultPlan(seed=3, disk_write_error_rate=1.0)
    mm = manager(budget_blocks=2, machine=LAPTOP, faults=plan, retry_limit=3)
    fill(mm, 1)
    fill(mm, 2)
    with pytest.raises(SIPError, match="scratch write failed"):
        fill(mm, 3)


def test_restore_all_brings_every_block_back():
    mm = manager(budget_blocks=1)
    blocks = [fill(mm, i) for i in (1, 2, 3)]
    assert mm.spilled_blocks == 2
    mm.restore_all()
    assert mm.spilled_blocks == 0
    assert mm.spilled_out_bytes == 0
    for i, block in zip((1, 2, 3), blocks):
        np.testing.assert_array_equal(block.data, np.full(SHAPE, float(i)))


def test_peak_tracks_unified_residency():
    mm = manager(budget_blocks=8)
    fill(mm, 1)
    fill(mm, 2)
    assert mm.stats.peak_bytes == 2 * NBYTES
    mm.cache.insert_ready(bid(10), Block(SHAPE, np.zeros(SHAPE)))
    assert mm.stats.peak_bytes == 3 * NBYTES


class _FullScanManager(MemoryManager):
    """The spill cascade as it was before per-class victim queues:
    rescan every spillable block once per spill class, spilling and
    re-queueing through the one insertion-ordered map."""

    def ensure_headroom(self, nbytes, allow_spill=True):
        if not self.unified:
            return
        need = self.bytes_in_use + nbytes - self.budget_bytes
        if need <= 0:
            return
        self.stats.cascades += 1
        freed, count = self.cache.evict_for_pressure(int(need))
        self.stats.pressure_evictions += count
        need = self.bytes_in_use + nbytes - self.budget_bytes
        if need <= 0:
            return
        if allow_spill:
            for cls in SPILL_ORDER:
                for b in list(self._spillable):
                    block, bid_cls = self._spillable[b]
                    if bid_cls != cls or b in self.pinned:
                        continue
                    need -= self.spill(b)
                    if need <= 0:
                        return
        self.stats.oom_refusals += 1
        raise OutOfBlockMemory("full")

    def spill(self, b):
        block, cls = self._spillable.pop(b)
        nbytes = block.nbytes
        if (
            self.spill_capacity is not None
            and self.spilled_out_bytes + nbytes > self.spill_capacity
        ):
            self._spillable[b] = (block, cls)
            return 0
        self._spill[b] = (block, block.data, cls)
        block.data = None
        self.spilled_out_bytes += nbytes
        self.stats.spills += 1
        self.stats.spill_bytes += nbytes
        self.stats.peak_spill_bytes = max(self.stats.peak_spill_bytes, self.spilled_out_bytes)
        self._trace("spill", b, nbytes)
        return nbytes


class _SpillLog:
    def __init__(self):
        self.events = []

    def record_mem(self, now, rank, kind, bid, nbytes):
        self.events.append((kind, bid))


def _random_pressure(cls, seed, spill_capacity):
    import random

    rng = random.Random(seed)
    log = _SpillLog()
    mm = cls(
        5 * NBYTES,
        real=True,
        name="test",
        cache_blocks=8,
        nbytes_of=lambda block_id: NBYTES,
        spill=True,
        spill_capacity=spill_capacity,
        tracer=log,
    )
    kinds = ("temp", "local", "static", "distributed")
    live: dict = {}
    for step in range(1500):
        i = rng.randrange(30)
        action = rng.random()
        try:
            if action < 0.45 and bid(i) not in live:
                block = mm.allocate(SHAPE)
                mm.register(bid(i), block, kinds[i % 4])
                live[bid(i)] = block
            elif action < 0.7 and bid(i) in live:
                mm.touch(bid(i))
                mm.pin_instr(bid(i))
            elif action < 0.8:
                mm.clear_instr_pins()
            elif action < 0.9 and bid(i) in live:
                mm.free(bid(i), live.pop(bid(i)))
            elif action < 0.95:
                mm.cache.insert_ready(BlockId(1, (i,)), Block(SHAPE, np.zeros(SHAPE)))
            else:
                mm.ensure_headroom(rng.randrange(4) * NBYTES)
        except OutOfBlockMemory:
            log.events.append(("oom", step))
    return log.events, mm.stats, list(mm._spillable), list(mm._spill)


@pytest.mark.parametrize(
    "spill_capacity", [None, 3 * NBYTES], ids=["ample-scratch", "scratch-full"]
)
def test_spill_cascade_order_matches_full_scan(spill_capacity):
    """Victims across SPILL_ORDER classes come out in the same order as
    the full rescan, including blocks re-queued when scratch is full."""
    for seed in range(3):
        new = _random_pressure(MemoryManager, seed, spill_capacity)
        old = _random_pressure(_FullScanManager, seed, spill_capacity)
        assert sum(1 for kind, _ in new[0] if kind == "spill") > 50
        assert new == old


def test_scratch_full_requeues_victim_last_in_its_class():
    mm = manager(budget_blocks=3, spill_capacity=NBYTES)
    fill(mm, 1, "temp")
    fill(mm, 2, "temp")
    fill(mm, 3, "static")
    fill(mm, 4, "temp")  # spills 1; scratch is now full
    assert mm.spilled_blocks == 1
    with pytest.raises(OutOfBlockMemory):
        fill(mm, 5, "temp")  # 2, 4, 3 each bounce off the full scratch
    assert list(mm._victims["temp"]) == [bid(2), bid(4)]
    assert list(mm._spillable) == [bid(2), bid(4), bid(3)]
