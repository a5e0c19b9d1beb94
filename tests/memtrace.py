"""Python-heap accounting of one call, for memory bounds in tests."""

import tracemalloc


def traced_call(fn, *args, **kwargs):
    """(fn's result, peak bytes traced during the call, bytes the call left allocated).

    Only allocations made during the call are traced, so memory alive before
    it, such as the arguments, counts toward neither figure.
    """
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current - start
