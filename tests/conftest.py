import contextlib
import os
import random
import types

import pytest

from absindex import from_edges, search


@pytest.fixture(scope="session")
def small_classes():
    """One graph per connected class of order 1..7 (996 graphs)."""
    return [g for n in range(1, 8) for g in search.enumerate_connected(n)]


@pytest.fixture(scope="session")
def gnp_graphs():
    """400 seeded G(n, p) graphs, n = 9..12, p = 0.2..0.7, not all connected."""
    rng = random.Random(23)
    graphs = []
    for _ in range(400):
        n = rng.randint(9, 12)
        p = rng.choice((0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(from_edges(n, edges))
    return graphs


@contextlib.contextmanager
def _emptied_class_cache():
    """An empty class cache inside the block; the warm one comes back after."""
    saved = dict(search._table_cache)
    search._table_cache.clear()
    try:
        yield
    finally:
        search._table_cache.clear()
        search._table_cache.update(saved)


@pytest.fixture
def cold_caches():
    """An empty class cache for one test; the warm one comes back after."""
    with _emptied_class_cache():
        yield


@pytest.fixture(scope="session")
def slow():
    """Skips the test unless ABSINDEX_SLOW=1: for the order-9 builds."""
    if os.environ.get("ABSINDEX_SLOW") != "1":
        pytest.skip("builds order 9, 10-20 s on 2 cores; set ABSINDEX_SLOW=1")


@pytest.fixture(scope="session")
def order_9(slow):
    """Order 9's class table, built once per session from empty caches
    in a 2-worker pool, with its forms read in the same pool, for every
    test that reads it; the warm caches come back after the session.
    Skips unless ABSINDEX_SLOW=1."""
    with _emptied_class_cache():
        search.connected_class_forms(9, workers=2)
        yield


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool by one that maps in this process.

    Yields a function that sets the number of usable cores; the returned
    namespace lists each pool's requested size and each batch it mapped,
    and counts the pools terminated.
    """
    seen = types.SimpleNamespace(sizes=[], batches=[], terminated=0)

    class Pool:
        def __init__(self, size):
            seen.sizes.append(size)

        def imap(self, fn, jobs, chunksize=1):
            seen.batches.append(len(jobs))
            return map(fn, jobs)

        def terminate(self):
            seen.terminated += 1

    monkeypatch.setattr(search, "_pool", Pool)

    def with_cores(cores):
        cpus = set(range(cores))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: cpus)
        return seen

    return with_cores
