"""The lookahead prefetcher: speculative gets for upcoming iterations.

Resolves the get/request/prefetch operands of the next few loop
iterations against hypothetical index bindings and hands the resulting
block ids to the transfer engine as *hints* -- never waiting, never
faulting, and stopping as soon as the engine reports no headroom (the
single backpressure predicate that used to be two copy-pasted
``capacity - 2`` guards).  An operand that depends on an index the
lookahead does not bind (an inner loop's) resolves to None and is
skipped without building an error.
"""

from __future__ import annotations

from ...sial.bytecode import Op

__all__ = ["LookaheadPrefetcher"]

# the fetch each prefetchable opcode stands for; an optimizer PREFETCH
# fetches by its operand's kind
_FETCH_KIND = {Op.GET: "get", Op.REQUEST: "request"}


class LookaheadPrefetcher:
    def __init__(self, vm) -> None:
        self.vm = vm
        self.engine = vm.engine
        # get_pcs -> ((operand, "get" | "request"), ...), built on first use
        self._tables: dict[tuple[int, ...], tuple] = {}

    def _table(self, get_pcs: tuple[int, ...]) -> tuple:
        table = self._tables.get(get_pcs)
        if table is None:
            entries = []
            for gpc in get_pcs:
                instr = self.vm._instrs[gpc]
                operand = instr.args[0]
                if instr.op == Op.PREFETCH:
                    kind = "get" if operand.kind == "distributed" else "request"
                else:
                    kind = _FETCH_KIND.get(instr.op)
                if kind is not None:
                    entries.append((operand, kind))
            table = self._tables[get_pcs] = tuple(entries)
        return table

    def _hint_all(self, table: tuple, bindings: dict[int, int]) -> bool:
        """Hint every operand resolvable under ``bindings``, in order.

        False when the engine dropped a hint (cache full of pending
        blocks): the caller stops this pass.
        """
        vm = self.vm
        for operand, kind in table:
            r = operand.lookahead(bindings)
            if r is None:
                continue  # depends on an index not currently bound
            bid = r.block_id
            if kind == "get" and vm.rt.owner_rank(bid) == vm.rank:
                continue
            if not self.engine.hint(bid, kind, mark_refetch=False):
                return False
        return True

    def future(self, get_pcs: tuple[int, ...], index_id: int, future_values) -> None:
        """Issue gets for upcoming iterations of one loop index."""
        vm = self.vm
        if not get_pcs or vm.config.prefetch_depth == 0:
            return
        table = self._table(get_pcs)
        bindings = vm.index_values
        saved = bindings.get(index_id)
        headroom = self.engine.headroom
        try:
            for v in future_values:
                if not headroom():
                    break  # leave room for demand fetches
                bindings[index_id] = v
                if not self._hint_all(table, bindings):
                    return  # cache full of pending blocks: stop prefetching
        finally:
            # the early returns above must not leak a future index value
            # into the running iteration's bindings
            if saved is None:
                bindings.pop(index_id, None)
            else:
                bindings[index_id] = saved

    def pardo(
        self, get_pcs: tuple[int, ...], index_ids: tuple[int, ...], tuples
    ) -> None:
        """Issue gets for upcoming pardo iterations in the current chunk."""
        vm = self.vm
        if not get_pcs or vm.config.prefetch_depth == 0:
            return
        table = self._table(get_pcs)
        bindings = vm.index_values
        saved = {i: bindings.get(i) for i in index_ids}
        headroom = self.engine.headroom
        for combo in tuples:
            if not headroom():
                break  # leave room for demand fetches
            for i, v in zip(index_ids, combo):
                bindings[i] = v
            # a dropped hint ends this iteration's hints only
            self._hint_all(table, bindings)
        for i, v in saved.items():
            if v is None:
                bindings.pop(i, None)
            else:
                bindings[i] = v
