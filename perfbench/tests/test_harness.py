"""Tests of the benchmark harness on workloads small enough for seconds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.api as api
import repro.sip.dryrun as dryrun
import repro.sip.runner as runner
from repro.sip.backend import ComputeBackend
from repro.sip.decode import DecodedOperand

import harness
from tracing import FlopCounter, Patches, SpanRecorder, Tracer
from workloads import Workload, prepare

TINY_CCSD = Workload(
    name="tiny_ccsd",
    driver="run_ccsd",
    driver_args=dict(n_basis=4, n_occ=1, iterations=1),
    value=("scalar", "ecc"),
    arrays=("T1", "T2"),
)
TINY_CONTRACT_MP = Workload(
    name="tiny_contract_mp",
    driver="run_paper_contraction",
    driver_args=dict(n_basis=4, n_occ=2),
    value=("array", "R"),
    arrays=("R",),
    execution="mp",
)


def _patched_attrs():
    """Every (owner, name) the tracer and flop counter replace."""
    seen = []
    with Tracer() as tracer:
        for owner, name, _own, _old in tracer._patches._undo:
            seen.append((owner, name))
    seen += [(ComputeBackend, m) for m in FlopCounter.METHODS]
    return seen


def test_wrappers_restore_originals():
    attrs = _patched_attrs()
    assert len(attrs) > 20
    before = {(o, n): vars(o).get(n) for o, n in attrs}
    orig_resolve, orig_dry_run = DecodedOperand.resolve, dryrun.dry_run
    with Tracer(), FlopCounter():
        assert DecodedOperand.resolve is not orig_resolve
        assert runner.dry_run is not orig_dry_run and api._dry_run is not orig_dry_run
    assert {(o, n): vars(o).get(n) for o, n in attrs} == before
    assert runner.dry_run is orig_dry_run and api._dry_run is orig_dry_run


def test_patches_remove_attributes_they_added():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with Patches() as patches:
        patches.replace(Child, "f", lambda self: 2)
        assert Child().f() == 2
    assert "f" not in vars(Child) and Child().f() == 1


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    outer, inner = rec.name_index("outer"), rec.name_index("inner")
    spans = ((0.0, 10.0, outer, -1, 0), (1.0, 4.0, inner, 0, 0), (5.0, 6.0, inner, 0, 0),
             (20.0, 21.5, inner, -1, 1))
    for start, end, name, parent, execution in spans:
        rec.name.append(name)
        rec.parent.append(parent)
        rec.execution.append(execution)
        rec.start.append(start)
        rec.end.append(end)
    assert rec.layer_times() == {
        0: {"outer": (1, 6.0), "inner": (2, 4.0)},
        1: {"inner": (1, 1.5)},
    }


def test_generator_spans_nest_per_resume():
    rec = SpanRecorder()
    leaf = rec.wrap(lambda: None, "leaf")

    def gen():
        leaf()
        yield 1
        leaf()
        yield 2

    timed = rec.wrap(gen, "gen")
    assert list(timed()) == [1, 2]
    names = [rec.names[i] for i in rec.name]
    assert names == ["gen", "leaf", "gen", "leaf", "gen"]
    parents = list(rec.parent)
    assert parents == [-1, 0, -1, 2, -1]


def _run(prepared, config):
    report = harness.RunReport()
    program = harness._setup(prepared)[1]
    return harness._execute(prepared, program, None, report, config)[1], report


def test_traced_execution_is_bitwise_identical_to_untraced():
    prepared = prepare(TINY_CCSD, seed=3)
    plain, report = _run(prepared, prepared.config_for(external_store={}))
    tracer = Tracer()
    with tracer, FlopCounter() as flops:
        traced, _ = _run(prepared, prepared.config_for(external_store={}, kernel_wallclock=True))
    assert report.failed == 0
    assert harness._same_bits(traced, plain) == []
    assert traced.counts == plain.counts
    assert flops.flops > 0
    names = set(tracer.spans.names)
    assert {"sip.decode.resolve", "rank.worker", "rank.master", "simmpi.Simulator.run"} <= names


def test_measure_traced_run_passes_every_check():
    prepared = prepare(TINY_CCSD, seed=4)
    report = harness.measure(prepared, seconds=0.0, trace=True)
    assert report.attempted == 2 and report.failed == 0, report.problems
    layers = report.layers
    assert layers["vm.instr"] > 0 and layers["decode.resolve_calls"] > 0
    assert layers["kernel.flops"] > 0 and layers["sial.compile_s"] > 0


def test_wrong_reference_counts_as_failure_without_aborting():
    prepared = prepare(TINY_CCSD, seed=5)
    prepared.reference = prepared.reference + 1.0
    report = harness.measure(prepared, seconds=0.5, trace=False)
    assert report.attempted >= 1
    assert report.failed == report.attempted
    assert any("exceeds" in p for p in report.problems)


def test_raising_execution_counts_as_failure():
    prepared = prepare(TINY_CCSD, seed=6)
    prepared.config = dataclasses.replace(prepared.config, inputs={"NOPE": np.zeros(1)})
    report = harness.measure(prepared, seconds=0.0, trace=False)
    assert report.attempted == 1 and report.failed == 1
    assert "execution raised" in report.problems[0]


@pytest.mark.parametrize("trace", [False, True])
def test_mp_matches_sim_oracle_and_leaks_nothing(trace):
    prepared = prepare(TINY_CONTRACT_MP, seed=7)
    report = harness.measure(prepared, seconds=0.0, trace=trace)
    assert report.failed == 0 and not report.problems, report.problems
    assert report.peak_rss_mb > 0
    if trace:
        assert report.layers["kernel.flops"] == 2 * 4**4 * 2**2
