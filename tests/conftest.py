import contextlib
import os
import pickle
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
    """Empty class caches, the tables' and the records', inside the block;
    the warm ones come back after."""
    caches = (search._table_cache, search._record_cache)
    saved = [dict(cache) for cache in caches]
    for cache in caches:
        cache.clear()
    try:
        yield
    finally:
        for cache, warm in zip(caches, saved):
            cache.clear()
            cache.update(warm)


@pytest.fixture
def cold_caches():
    """Empty class caches, the tables' and the records', for one test; the
    warm ones come back after."""
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
    in two shares, one of them forked, with its forms read in two shares
    too, for every test that reads it; the warm caches come back after
    the session.
    Skips unless ABSINDEX_SLOW=1."""
    with _emptied_class_cache():
        search.connected_class_forms(9, workers=2)
        yield


@pytest.fixture
def shares(monkeypatch):
    """Records how ``search._in_shares`` deals jobs into shares
    (``search._shares``), whose function takes a whole share.

    Yields a function that sets the number of usable cores; the returned
    namespace lists each split's number of shares and number of jobs,
    and ``sent``, the bytes that each share but the first pickles, as a
    forked child sends its result.  The shares are forked as usual, or
    with ``fork=False`` computed in this process, so that a test may ask
    for more shares than it should start processes.
    """
    seen = types.SimpleNamespace(sizes=[], batches=[], sent=[])
    forked = search._shares

    def with_cores(cores, fork=True):
        def recorded(fn, parts):
            seen.sizes.append(len(parts))
            seen.batches.append(sum(map(len, parts)))
            results = forked(fn, parts) if fork else [fn(part) for part in parts]
            seen.sent += [len(pickle.dumps((True, result))) for result in results[1:]]
            return results

        monkeypatch.setattr(search, "_shares", recorded)
        cpus = set(range(cores))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: cpus)
        return seen

    return with_cores
