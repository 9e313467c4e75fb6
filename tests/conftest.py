import concurrent.futures

import numpy as np
import pytest

from qvmss.imaging import BinaryImage


@pytest.fixture
def flat_image():
    """`flat_image(width, height, bit)`: an image whose every pixel is `bit`."""
    return lambda width, height, bit: BinaryImage(width, height, np.full(width * height, bit, np.uint8))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the encoder's thread pool with an inline stand-in.

    Returns the list of `max_workers` values the encoder asked for; no
    thread is started.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # `encrypt` imports the pool from concurrent.futures only when it runs threads.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return sizes
