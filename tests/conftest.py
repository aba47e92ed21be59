import types

import pytest

from absindex import search


@pytest.fixture
def cold_caches():
    """Empty class and table caches for one test; the warm ones come back after."""
    saved = dict(search._class_cache), dict(search._table_cache)
    search._class_cache.clear()
    search._table_cache.clear()
    yield
    for cache, entries in zip((search._class_cache, search._table_cache), saved):
        cache.clear()
        cache.update(entries)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool by one that maps in this process.

    Yields a function that sets the number of usable cores; the returned
    namespace lists each pool's requested size and each batch it mapped.
    """
    seen = types.SimpleNamespace(sizes=[], batches=[])

    class Pool:
        def __init__(self, size):
            seen.sizes.append(size)

        def imap(self, fn, jobs, chunksize=1):
            seen.batches.append(len(jobs))
            return map(fn, jobs)

        def terminate(self):
            pass

    monkeypatch.setattr(search, "_POOL_CONTEXT", types.SimpleNamespace(Pool=Pool))

    def with_cores(cores):
        cpus = set(range(cores))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: cpus)
        return seen

    return with_cores
