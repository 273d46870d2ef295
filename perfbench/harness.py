"""Timed, verified executions of one workload, and the metrics they give.

A run has three parts:

1. untimed: seeded inputs and the numpy reference (:func:`prepare`),
   and on the mp backend one sim run of the same program, the bitwise
   oracle for every mp execution;
2. set-up, repeated: ``compile_source`` at the workload's ``-O`` level
   plus ``api.dry_run``.  One sample is the mean of as many set-ups as
   fit in 0.1 s (a CCSD set-up takes milliseconds and is bimodal, so
   single set-ups give an unsteady median); ``setup_s`` is the median
   over samples;
3. executions: ``run_program`` back to back until the next one would
   end past the measuring window (at least two, so that a 14 s CCSD
   still gives a median of two; with tracing, at least one pair).  Each is verified
   against the numpy reference (relative 1e-10), against its bitwise
   baseline (the run's first execution on sim, the sim oracle on mp)
   and, on mp, for leaked shared memory.  A failed or mismatching
   execution is counted, never raised.

With tracing on, executions alternate between untraced and traced; the
traced ones run under :class:`tracing.Tracer` with the SIP's
``kernel_wallclock`` on, and give the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import numpy as np
import repro.api as api
import repro.sial as sial
from repro.sip import runner

from tracing import FlopCounter, Tracer
from workloads import WORKERS, Prepared

__all__ = ["RunReport", "measure"]

#: relative tolerance against the numpy reference
RTOL = 1e-10
#: set-up samples per run, and the least time one sample averages over
SETUP_SAMPLES = 11
SETUP_SAMPLE_SECONDS = 0.1
#: execution id of the traced set-ups
SETUP_ID = -1
_SHM = Path("/dev/shm")


@dataclass
class RunReport:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced executions
    traced_walls: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # mean of each sample
    setup_count: int = 0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# -- results and checks --------------------------------------------------
@dataclass
class Outcome:
    """What one execution produced, reduced to what the checks compare."""

    scalars: dict[str, float]
    digests: dict[str, str]  # gathered arrays, by content hash
    value: Any  # what is compared to the numpy reference; dropped after
    counts: tuple  # instructions, messages, simulated elapsed
    stats: dict[str, Any]
    wait_fraction: float


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


def gather(result: Any, prepared: Prepared) -> Outcome:
    stats = result.stats
    arrays = {n: result.array(n) for n in prepared.workload.arrays}
    kind, name = prepared.workload.value
    return Outcome(
        scalars=dict(result.scalars),
        digests={n: _digest(a) for n, a in arrays.items()},
        value=result.scalar(name) if kind == "scalar" else arrays[name],
        counts=(stats["instr_executed"], stats["messages_sent"], result.elapsed),
        stats=stats,
        wait_fraction=result.profile.wait_fraction,
    )


def _same_bits(a: Outcome, b: Outcome) -> list[str]:
    bad = [
        f"scalar {k} differs bitwise"
        for k in sorted(set(a.scalars) | set(b.scalars))
        if np.float64(a.scalars.get(k, np.nan)).tobytes()
        != np.float64(b.scalars.get(k, np.nan)).tobytes()
    ]
    bad += [f"array {n} differs bitwise" for n in a.digests if a.digests[n] != b.digests.get(n)]
    return bad


def check(
    prepared: Prepared,
    out: Outcome,
    baseline: Optional[Outcome],
    new_shm: int = 0,
) -> list[str]:
    """Every reason ``out`` is wrong; empty when it passes."""
    name = prepared.workload.value[1]
    ref = np.asarray(prepared.reference, dtype=float)
    err = float(np.max(np.abs(np.asarray(out.value, dtype=float) - ref)))
    scale = float(np.max(np.abs(ref)))
    problems = []
    if not err <= RTOL * scale:
        problems.append(f"{name}: error {err:.3e} exceeds {RTOL:g} x {scale:.3e}")
    if baseline is None:
        problems.append("no bitwise baseline")
    else:
        problems += _same_bits(out, baseline)
        if prepared.workload.execution == "sim" and out.counts != baseline.counts:
            problems.append(f"instr/messages/elapsed {out.counts} != {baseline.counts}")
    if new_shm:
        problems.append(f"{new_shm} shared-memory segments left behind")
    leaked = out.stats.get("mp_shm_leaked", 0) + out.stats.get("arena_refs_leaked", 0)
    if leaked:
        problems.append(f"{leaked} shm segments or arena references leaked")
    return problems


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(_SHM) if n.startswith("rmp")}
    except OSError:
        return set()


# -- memory ----------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark (Linux ``clear_refs`` 5)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError as err:
        print(f"note: peak RSS not reset ({err})", file=sys.stderr)


def peak_rss_mb(execution: str) -> float:
    """Peak RSS of this process, or of the largest child rank on mp."""
    if execution == "mp":
        kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        kib = 0
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                kib = int(line.split()[1])
    return kib * 1024 / 1e6


# -- the run -----------------------------------------------------------------
def _setup(prepared: Prepared) -> tuple[float, Any]:
    """One timed set-up: compile at the workload's level, then dry-run."""
    t0 = perf_counter()
    program = sial.compile_source(prepared.source, optimize=prepared.workload.opt_level)
    api.dry_run(program, prepared.config, prepared.symbolics)
    return perf_counter() - t0, program


def _execute(
    prepared: Prepared,
    program: Any,
    baseline: Optional[Outcome],
    report: RunReport,
    config: Any,
) -> tuple[Optional[float], Optional[Outcome]]:
    """One timed ``run_program``, checked and counted.

    Without a ``baseline`` (the first execution on sim) the execution
    is its own bitwise baseline and later ones are compared to it.
    """
    mp = prepared.workload.execution == "mp"
    shm_before = _shm_segments() if mp else set()
    gc.collect()  # start every execution from a comparable heap
    try:
        t0 = perf_counter()
        result = runner.run_program(program, config, prepared.symbolics)
        wall = perf_counter() - t0
        out = gather(result, prepared)
    except Exception:  # noqa: BLE001 - a failed execution is counted, not fatal
        report.count(["execution raised:\n" + traceback.format_exc()])
        return None, None
    new_shm = len(_shm_segments() - shm_before) if mp else 0
    if baseline is None and not mp:
        baseline = out
    report.count(check(prepared, out, baseline, new_shm))
    out.value = None
    return wall, out


def _sim_oracle(prepared: Prepared, program: Any, report: RunReport) -> Optional[Outcome]:
    """The untimed sim run every mp execution must match bitwise."""
    try:
        result = runner.run_program(
            program, prepared.config_for(execution="sim", external_store={}), prepared.symbolics
        )
        out = gather(result, prepared)
    except Exception:  # noqa: BLE001 - reported; mp executions then fail their check
        report.problems.append("sim oracle raised:\n" + traceback.format_exc())
        return None
    problems = check(prepared, out, out)
    if problems:
        report.problems += ["sim oracle: " + p for p in problems]
        return None
    out.value = None
    return out


def measure(
    prepared: Prepared,
    seconds: float,
    trace: bool,
    spans_path: Optional[Path] = None,
) -> RunReport:
    """Set up and execute ``prepared`` for ``seconds``; see the module doc."""
    report = RunReport()
    mp = prepared.workload.execution == "mp"
    tracer = Tracer() if trace else None

    program = None
    if tracer is not None:
        tracer.begin(SETUP_ID)
    with tracer or nullcontext():
        while len(report.setups) < SETUP_SAMPLES:
            n, spent = 0, 0.0
            while spent < SETUP_SAMPLE_SECONDS:
                elapsed, program = _setup(prepared)
                n, spent = n + 1, spent + elapsed
            report.setups.append(spent / n)
            report.setup_count += n

    baseline = None
    oracle_flops = FlopCounter()
    if mp:
        # mp kernels run in the child ranks; their flops are counted on
        # this sim run instead, which executes the same contractions
        with oracle_flops:
            baseline = _sim_oracle(prepared, program, report)

    reset_peak_rss()
    min_walls = 1 if tracer is not None else 2
    traced: list[tuple[int, Outcome, int]] = []
    t0 = perf_counter()
    while True:
        wall, out = _execute(
            prepared, program, baseline, report, prepared.config_for(external_store={})
        )
        if baseline is None and not mp:
            baseline = out
        if wall is not None:
            report.walls.append(wall)
        step = wall or 0.0
        if tracer is not None:
            exec_id = report.attempted + 1
            tracer.begin(exec_id)
            flops = FlopCounter()
            config = prepared.config_for(external_store={}, kernel_wallclock=True)
            with tracer, flops:
                twall, tout = _execute(prepared, program, baseline, report, config)
            if twall is not None:
                report.traced_walls.append(twall)
                traced.append((exec_id, tout, oracle_flops.flops if mp else flops.flops))
            step += twall or 0.0
        if wall is None:
            break  # the execution raised; one attempt is enough
        if len(report.walls) >= min_walls and perf_counter() - t0 + step > seconds:
            break  # the next execution would overrun the window
    report.peak_rss_mb = peak_rss_mb(prepared.workload.execution)

    if tracer is not None:
        report.layers = layer_metrics(prepared, report, tracer, traced)
        if spans_path is not None:
            tracer.spans.dump(spans_path)
    return report


# -- per-layer metrics ---------------------------------------------------------
def _self_s(times: dict, *prefixes: str) -> float:
    return sum(s for name, (_, s) in times.items() if name.startswith(prefixes))


def _calls(times: dict, *prefixes: str) -> int:
    return sum(c for name, (c, _) in times.items() if name.startswith(prefixes))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _exec_metrics(
    times: dict, out: Outcome, gc_pause: list, flops: int, wall: float, par: int
) -> dict[str, float]:
    """Per-layer metrics of one traced execution.

    ``wall`` is the run's median untraced wall time; ``par`` is 1 on the
    simulator (every rank shares one host thread) and the worker count
    on mp, where workers run kernels in parallel.
    """
    st = out.stats
    kw = st.get("kernel_wall", {})
    kernel_s = sum(kw.values())
    contract_s = sum(kw.get(k, 0.0) for k in ("contract", "fused_contract", "scalar_contract"))
    instr = st["instr_executed"]
    issued, coalesced = st["blockio_issued"], st["blockio_coalesced"]
    spills, faults = st["mem_spills"], st["mem_faults_in"]
    return {
        "passes.instr_removed": st.get("opt_instructions_before", 0)
        - st.get("opt_instructions_after", 0),
        "decode.resolve_calls": _calls(times, "sip.decode."),
        "decode.resolve_s": _self_s(times, "sip.decode."),
        "vm.instr": instr,
        # kernels run inside the worker resumes (timed by kernel_wallclock)
        "vm.self_s": _self_s(times, "rank.worker")
        - (kernel_s if "rank.worker" in times else 0.0),
        "vm.us_per_instr": 1e6 * _ratio(wall - kernel_s / par, instr / par),
        "prefetch.calls": _calls(times, "sip.vm.prefetch."),
        "prefetch.s": _self_s(times, "sip.vm.prefetch."),
        "prefetch.hint_drops": st["blockio_hint_drops"],
        "conflict.records": _calls(times, "sip.distributed.record_"),
        "conflict.s": _self_s(times, "sip.distributed.record_"),
        "blockio.issued": issued,
        "blockio.coalesced": coalesced,
        "blockio.coalesce_ratio": _ratio(coalesced, issued + coalesced),
        "blockio.backpressure_stalls": st["blockio_backpressure_stalls"],
        "blockio.s": _self_s(times, "sip.blockio."),
        "cache.hit_ratio": _ratio(st["cache_hits"], st["cache_hits"] + st["cache_misses"]),
        "cache.evictions": st["cache_evictions"],
        "cache.evicted_before_use": st["cache_evicted_before_use"],
        "cache.s": _self_s(times, "sip.cache."),
        "mem.peak_bytes": st["mem_peak_bytes"],
        "mem.cascades": st["mem_cascades"],
        "mem.spills": spills,
        "mem.spill_bytes": st["mem_spill_bytes"],
        "mem.faults_in": faults,
        "mem.refault_ratio": _ratio(faults, spills),
        "mem.s": _self_s(times, "sip.memman."),
        "kernel.s": kernel_s,
        "kernel.contract_s": contract_s,
        "kernel.integrals_s": kw.get("compute_integrals", 0.0),
        "kernel.share": _ratio(kernel_s / par, wall),
        "kernel.flops": flops,
        "kernel.gflops": _ratio(flops, contract_s) / 1e9,
        "plans.hit_ratio": st["plan_cache_hit_rate"],
        "sched.chunks": st["sched_chunks"],
        "sched.steals": st["sched_steals"],
        "sched.s": _self_s(times, "rank.master", "sip.scheduler."),
        "io.server_hit_ratio": _ratio(
            st["server_cache_hits"], st["server_cache_hits"] + st["server_cache_misses"]
        ),
        "io.disk_reads": st["disk_reads"],
        "io.disk_bytes": st["disk_bytes_read"] + st["disk_bytes_written"],
        "sim.loop_self_s": _self_s(times, "simmpi.Simulator.run"),
        "net.messages": st["messages_sent"],
        "net.bytes": st["bytes_sent"],
        "net.remote_bytes": st["remote_bytes"],
        "sim.elapsed_s": out.counts[2],
        "sim.wait_fraction": out.wait_fraction,
        "mp.msgs_per_write": st["batch_msgs_per_write"],
        "mp.zero_copy_ratio": _ratio(st["bytes_zero_copy"], st["bytes_sent"]),
        "mp.arena_hits": st["arena_hits"],
        "mp.arena_misses": st["arena_misses"],
        "mp.shm_leaked": st.get("mp_shm_leaked", 0),
        "gc.pause_s": gc_pause[0],
        "gc.collections": gc_pause[1],
    }


def layer_metrics(
    prepared: Prepared,
    report: RunReport,
    tracer: Tracer,
    traced: list[tuple[int, Outcome, int]],
) -> dict[str, float]:
    """Every per-layer metric: means over the traced set-ups, medians over
    the traced executions."""
    times = tracer.spans.layer_times()
    med = statistics.median
    setup, n = times.get(SETUP_ID, {}), report.setup_count
    out: dict[str, float] = {
        "sial.compile_s": _self_s(setup, "sial.compile_source") / n,
        "passes.optimize_s": _self_s(setup, "sial.passes.") / n,
        "dryrun.s": _self_s(setup, "sip.dryrun.") / n,
    }
    wall = med(report.walls) if report.walls else 0.0
    par = WORKERS if prepared.workload.execution == "mp" else 1
    per_exec = [
        _exec_metrics(times.get(i, {}), o, tracer.gc.get(i, [0.0, 0]), flops, wall, par)
        for i, o, flops in traced
    ]
    for key in per_exec[0] if per_exec else ():
        out[key] = med(m[key] for m in per_exec)
    out["trace.overhead"] = (
        _ratio(med(report.traced_walls), wall) - 1.0 if report.traced_walls and wall else 0.0
    )
    return out
