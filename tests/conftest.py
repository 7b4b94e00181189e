"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools started while it is in use. Each
    pool is a stand-in that runs its work in this process, so no worker
    process starts, whatever size is asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None, initializer=None):
            sizes.append(max_workers)
            if initializer is not None:
                initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
