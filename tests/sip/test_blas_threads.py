"""The mp backend sizes each forked rank's OpenBLAS thread pool.

A user super instruction running inside a worker rank writes the rank's
OpenBLAS thread count into a block; the gathered array must hold the
cap ``max(1, usable_cpus // ranks)``, while the parent keeps its own
pool size.
"""

import numpy as np
import pytest

from repro.sip import SIPConfig, run_source
from repro.sip.blas import openblas_threads, rank_blas_threads

SOURCE = """
sial blas_threads
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
pardo M, N
  T(M, N) = 0.0
  execute report_blas_threads T(M, N)
  put D(M, N) = T(M, N)
endpardo M, N
endsial blas_threads
"""


def test_rank_blas_threads_is_a_share_of_the_cores():
    assert rank_blas_threads(10**6) == 1
    assert rank_blas_threads(1) >= 1


@pytest.mark.mp
def test_forked_rank_reports_capped_blas_pool():
    api = openblas_threads()
    if api is None:
        pytest.skip("numpy is not linked against an OpenBLAS with thread controls")
    set_threads, get_threads = api

    def report(call):
        if call.real:
            call.blocks[0].data[...] = get_threads()
        return 1.0

    config = SIPConfig(
        workers=2,
        io_servers=1,
        segment_size=2,
        execution="mp",
        superinstructions={"report_blas_threads": report},
    )
    parent_threads = get_threads()
    # a parent pool wider than any rank's share, so the cap must show
    set_threads(rank_blas_threads(config.world_size) + 1)
    try:
        widened = get_threads()
        result = run_source(SOURCE, config, symbolics={"nb": 4})
        assert get_threads() == widened  # only the forked ranks are capped
    finally:
        set_threads(parent_threads)
    reported = result.array("D")
    assert np.all(reported == rank_blas_threads(config.world_size))
