"""Worker pool and phase profiling.

The dominant cost of every algorithm in this package is the evaluation of
the return map on many independent grid points, so parallelism is a plain
chunked map: the caller splits its grid into chunks whose boundaries depend
only on the problem (never on the worker count), and the chunks are
dispatched to a process pool.  Results are therefore bit-identical for any
number of workers.

The pool is created once (``set_workers``) and reused; with one worker
everything runs in-process.  The pool's modules (``multiprocessing`` and
``concurrent.futures.process``) load on the first ``set_workers(k)`` with
k > 1, so a one-worker run never imports them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_workers = 1
_pool = None  # a concurrent.futures.ProcessPoolExecutor while _workers > 1


def set_workers(k: int) -> None:
    """Size the worker pool; called once at startup.  A count below 1
    raises ValueError and leaves the pool as it was."""
    global _workers, _pool
    k = int(k)
    if k < 1:
        raise ValueError(f"worker count must be at least 1, got {k}")
    if k == _workers and (k == 1 or _pool is not None):
        return
    if _pool is not None:
        _pool.shutdown()
        _pool = None
    _workers = k
    if k > 1:
        from concurrent.futures import ProcessPoolExecutor

        _pool = ProcessPoolExecutor(max_workers=k)


def get_workers() -> int:
    return _workers


def run_chunks(fn, payloads: list) -> list:
    """Apply a picklable function to every payload, in order."""
    if _workers == 1 or _pool is None or len(payloads) < 2:
        return [fn(p) for p in payloads]
    return list(_pool.map(fn, payloads, chunksize=1))


class Profile:
    """Wall-time accumulator per phase, used for the run reports."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def reset(self) -> None:
        self.seconds.clear()

    def add(self, name: str, dt: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def fraction(self, name: str, total: float) -> float:
        if total <= 0.0:
            return 0.0
        return self.seconds.get(name, 0.0) / total


profile = Profile()
