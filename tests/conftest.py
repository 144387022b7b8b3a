import tracemalloc

import pytest

from radialwave import norms, regions


@pytest.fixture
def traced_peak():
    """peak(fn): the tracemalloc peak of fn(), in bytes, from a cold memo.

    The region intervals (``regions._intervals``) and the norm measures
    (``norms._measure``) are memoised per grid, so a traced call counts them
    only if it is the first to build them.  Both memos are cleared before
    tracing, so a peak does not depend on which tests ran before it."""
    def peak(fn) -> int:
        regions._intervals.cache_clear()
        norms._measure.cache_clear()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
