"""Host-time spans around the SIA's layer entry points, from outside.

Nothing in ``src/`` is edited: :class:`Patches` swaps a public function
or method for a timing wrapper and puts the original back on exit.
Every call records one span (name, start, end, parent span, execution
id) in flat in-memory arrays; a generator function is timed once per
resume, so a rank coroutine's span covers exactly the host time it ran
between two yields.  Self times are derived from the spans at the end:
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import gc
import inspect
import re
import sys
from array import array
from math import prod
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np
import repro.sial as sial
import repro.sial.passes as passes
import repro.sip.dryrun as dryrun
from repro.simmpi.simulator import Simulator
from repro.sip.backend import ComputeBackend
from repro.sip.blockio import BlockTransferEngine
from repro.sip.cache import BlockCache
from repro.sip.decode import DecodedOperand
from repro.sip.distributed import ConflictTracker
from repro.sip.memman import MemoryManager
from repro.sip.scheduler import GuidedScheduler, LocalityScheduler, StaticScheduler
from repro.sip.vm.prefetch import LookaheadPrefetcher

__all__ = ["FlopCounter", "Patches", "SpanRecorder", "TimedGenerator", "Tracer"]


class Patches:
    """Attribute replacements that are undone, in reverse, on ``close``."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, name: str, new: Any) -> None:
        own = name in vars(owner)
        self._undo.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, new)

    def replace_everywhere(self, fn: Callable, new: Callable) -> None:
        """Rebind every ``repro`` module global that is ``fn`` itself.

        Functions are imported by name into several modules (``dry_run``
        lives in the runner, the mp runner and the API too), so each
        binding is swapped.
        """
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, attr, new)

    def close(self) -> None:
        while self._undo:
            owner, name, own, old = self._undo.pop()
            if own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SpanRecorder:
    """Flat span store: one row per timed call or generator resume."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.execution = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.exec_id = 0

    def name_index(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, name_ix: int) -> int:
        i = len(self.name)
        self.name.append(name_ix)
        self.parent.append(self._stack[-1])
        self.execution.append(self.exec_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per call (per resume if a generator)."""
        ix = self.name_index(name)
        rec = self
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args: Any, **kwargs: Any) -> TimedGenerator:
                return TimedGenerator(fn(*args, **kwargs), ix, rec)

            return gen_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = rec.open(ix)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)

        return wrapper

    def layer_times(self) -> dict[int, dict[str, tuple[int, float]]]:
        """Per execution id: ``name -> (spans, self seconds)``."""
        if not self.name:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        execs, row = np.unique(np.frombuffer(self.execution, dtype=np.int32), return_inverse=True)
        k = len(self.names)
        cell = row * k + name
        counts = np.bincount(cell, minlength=len(execs) * k).reshape(len(execs), k)
        sums = np.bincount(cell, weights=dur - covered, minlength=len(execs) * k)
        sums = sums.reshape(len(execs), k)
        return {
            int(e): {
                self.names[j]: (int(counts[r, j]), float(sums[r, j]))
                for j in np.flatnonzero(counts[r])
            }
            for r, e in enumerate(execs)
        }

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            execution=np.frombuffer(self.execution, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class TimedGenerator:
    """Generator proxy recording one span per resume (``send``/``throw``)."""

    __slots__ = ("gen", "ix", "rec")

    def __init__(self, gen: Any, ix: int, rec: SpanRecorder) -> None:
        self.gen = gen
        self.ix = ix
        self.rec = rec

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        i = self.rec.open(self.ix)
        try:
            return self.gen.send(value)
        finally:
            self.rec.close(i)

    def throw(self, *exc: Any) -> Any:
        i = self.rec.open(self.ix)
        try:
            return self.gen.throw(*exc)
        finally:
            self.rec.close(i)

    def close(self) -> None:
        self.gen.close()


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _kernel_flops(method: str, args: tuple) -> int:
    """Floating-point operations of one contraction, from operand shapes."""
    if method == "scalar_contract":
        a = args[0]
        return 2 * prod(a.shape)
    dst, _op, a, b = args[:4]
    out_ids = args[4] if method == "fused_contract" else dst.index_ids
    dims = dict(zip(a.index_ids, a.shape))
    dims.update(zip(b.index_ids, b.shape))
    out = prod(dims[ix] for ix in out_ids)
    contracted = prod(d for ix, d in zip(a.index_ids, a.shape) if ix not in out_ids)
    return 2 * out * contracted


class FlopCounter:
    """Counts contraction flops in :class:`ComputeBackend`, by shapes.

    A context manager: counting is on while it is entered.
    """

    METHODS = ("contract", "fused_contract", "scalar_contract")

    def __init__(self) -> None:
        self.flops = 0
        self._patches = Patches()

    def _counted(self, inner: Callable, method: str) -> Callable:
        def counted(backend: Any, *args: Any) -> Any:
            self.flops += _kernel_flops(method, args)
            return inner(backend, *args)

        return counted

    def __enter__(self) -> "FlopCounter":
        for method in self.METHODS:
            inner = getattr(ComputeBackend, method)
            self._patches.replace(ComputeBackend, method, self._counted(inner, method))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.close()


def _rank_role(name: str) -> str:
    return "rank." + re.sub(r"\d+", "", name)


class Tracer:
    """Installs spans on every layer entry point the benchmark reports.

    Used as a context manager, entered once per traced section; the
    spans of every section accumulate in :attr:`spans`.  ``begin(id)``
    tags the spans and GC pauses that follow with one execution id.
    """

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.gc: dict[int, list[float]] = {}
        self._gc_t0 = 0.0
        self._patches = Patches()

    def begin(self, exec_id: int) -> None:
        self.spans.exec_id = exec_id
        self.gc.setdefault(exec_id, [0.0, 0])

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
            return
        entry = self.gc.setdefault(self.spans.exec_id, [0.0, 0])
        entry[0] += perf_counter() - self._gc_t0
        entry[1] += 1

    def __enter__(self) -> "Tracer":
        patches = self._patches
        wrap = self.spans.wrap
        for fn, name in (
            (sial.compile_source, "sial.compile_source"),
            (passes.optimize_program, "sial.passes.optimize_program"),
            (dryrun.dry_run, "sip.dryrun.dry_run"),
        ):
            patches.replace_everywhere(fn, wrap(fn, name))
        methods: list[tuple[type, str, str]] = [
            (DecodedOperand, "resolve", "sip.decode.resolve"),
            (LookaheadPrefetcher, "future", "sip.vm.prefetch.future"),
            (LookaheadPrefetcher, "pardo", "sip.vm.prefetch.pardo"),
            (Simulator, "run", "simmpi.Simulator.run"),
        ]
        methods += [
            (BlockTransferEngine, m, f"sip.blockio.{m}")
            for m in _public_methods(BlockTransferEngine)
        ]
        methods += [(BlockCache, m, f"sip.cache.{m}") for m in _public_methods(BlockCache)]
        methods += [
            (MemoryManager, m, f"sip.memman.{m}") for m in ("ensure_headroom", "spill", "touch")
        ]
        methods += [
            (ConflictTracker, m, f"sip.distributed.{m}")
            for m in _public_methods(ConflictTracker)
            if m.startswith("record_")
        ]
        methods += [
            (cls, "next_chunk_for", "sip.scheduler.next_chunk_for")
            for cls in (GuidedScheduler, StaticScheduler, LocalityScheduler)
        ]
        for cls, method, name in methods:
            patches.replace(cls, method, wrap(getattr(cls, method), name))

        spawn = Simulator.spawn
        spans = self.spans

        def traced_spawn(sim, gen, name="proc", daemon=False):
            timed = TimedGenerator(gen, spans.name_index(_rank_role(name)), spans)
            return spawn(sim, timed, name, daemon)

        patches.replace(Simulator, "spawn", traced_spawn)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.close()
