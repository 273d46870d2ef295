"""Lookahead operand resolution and the prefetcher's hint stream.

An operand that depends on an index the lookahead does not bind (an
inner loop's) must yield no hint and raise nothing; a bound one must
hint exactly the block a demand resolution would fetch.
"""

from types import SimpleNamespace

import pytest

from repro.sial import compile_source
from repro.sial.bytecode import Op
from repro.sip.blocks import BlockId, ResolvedIndexTable
from repro.sip.config import SIPError
from repro.sip.decode import decode_program
from repro.sip.vm.prefetch import LookaheadPrefetcher

SOURCE = """
sial lookahead
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
pardo M
  do N
    get D(M, N)
    T(M, N) = D(M, N)
  enddo N
endpardo M
endsial lookahead
"""


class _Engine:
    def __init__(self):
        self.hints = []

    def headroom(self):
        return True

    def hint(self, bid, kind, *, mark_refetch=True):
        self.hints.append((bid, kind))
        return True


@pytest.fixture
def setup():
    program = compile_source(SOURCE)
    table = ResolvedIndexTable(program, {"nb": 4}, segment_size=2)
    decoded = decode_program(program, table)
    names = [d.name for d in program.index_table]
    m, n = names.index("M"), names.index("N")
    get_pc = next(
        pc for pc, instr in enumerate(decoded.instructions) if instr.op == Op.GET
    )
    engine = _Engine()
    vm = SimpleNamespace(
        engine=engine,
        config=SimpleNamespace(prefetch_depth=2),
        index_values={},
        _instrs=decoded.instructions,
        rank=0,
        rt=SimpleNamespace(owner_rank=lambda bid: 1),
    )
    operand = decoded.instructions[get_pc].args[0]
    return SimpleNamespace(
        vm=vm, engine=engine, m=m, n=n, get_pc=get_pc, operand=operand,
        array_id=program.array_id("D"),
    )


def test_lookahead_on_unbound_index_is_none_not_an_error(setup):
    assert setup.operand.lookahead({setup.m: 1}) is None
    with pytest.raises(SIPError, match="has no value here"):
        setup.operand.resolve({setup.m: 1})


def test_lookahead_out_of_range_is_none(setup):
    assert setup.operand.lookahead({setup.m: 1, setup.n: 9}) is None


def test_lookahead_agrees_with_resolve_when_bound(setup):
    bindings = {setup.m: 2, setup.n: 1}
    assert setup.operand.lookahead(bindings) is setup.operand.resolve(bindings)


def test_pardo_prefetch_skips_operand_with_unbound_inner_index(setup, monkeypatch):
    import repro.sip.decode as decode

    def no_error(*args, **kwargs):
        raise AssertionError("the lookahead built an error")

    monkeypatch.setattr(decode, "SIPError", no_error)
    prefetcher = LookaheadPrefetcher(setup.vm)
    prefetcher.pardo((setup.get_pc,), (setup.m,), [(2,)])
    assert setup.engine.hints == []
    assert setup.vm.index_values == {}  # bindings restored


def test_loop_prefetch_hints_future_blocks(setup):
    prefetcher = LookaheadPrefetcher(setup.vm)
    setup.vm.index_values.update({setup.m: 1, setup.n: 1})
    prefetcher.future((setup.get_pc,), setup.n, [2])
    assert setup.engine.hints == [(BlockId(setup.array_id, (1, 2)), "get")]
    assert setup.vm.index_values == {setup.m: 1, setup.n: 1}
