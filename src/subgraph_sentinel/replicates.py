"""The replicate engine: one map of a per-graph function over random streams.

Every Monte Carlo quantity in the package (null statistics for a
threshold, rejections for a risk estimate) is a function applied to
graphs drawn as ``sample(spec, seed, index)``.  Each draw owns its
stream, so results do not depend on the worker count or on scheduling.

Parallel maps share one process pool, started on first use and kept
while the worker count stays the same, so a command that maps many
times starts its workers once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .models import sample

_pool = None  # (workers, executor) reused by later parallel maps


def _executor(workers: int) -> ProcessPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _apply(job):
    # top-level so worker processes can unpickle it
    fn, spec, seed, index = job
    return fn(sample(spec, seed, index))


def map_replicates(fn, draws, workers: int | None = None) -> list:
    """[fn(sample(spec, seed, index)) for each (spec, seed, index) in draws].

    fn must pickle when workers > 1.  Small maps (fewer than 8 draws) and
    workers <= 1 run in this process.
    """
    jobs = [(fn, spec, seed, index) for spec, seed, index in draws]
    if workers is None or workers <= 1 or len(jobs) < 8:
        return [_apply(j) for j in jobs]
    global _pool
    chunk = max(1, len(jobs) // (8 * workers))
    try:
        return list(_executor(workers).map(_apply, jobs, chunksize=chunk))
    except BrokenProcessPool:
        _pool = None  # a dead worker breaks the pool; the next map starts anew
        raise
