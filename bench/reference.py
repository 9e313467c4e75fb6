"""A fixed reference kernel, timed in every round, that gauges the host's speed.

The CPUs of a shared host run faster or slower from one minute to the next,
and a whole run can fall in a slow spell.  The kernel does the same work in
every round of every run, whatever the seed and whatever the program does,
so its time moves only with the host.  Command times divided by it cancel
most of that drift.  It has two parts, timed apart:

* numpy, six passes of: a basis permutation, a Hadamard-like butterfly,
  `abs()**2` and a row sum over 2^18 complex amplitudes (a quarter of one
  block of the dense engine), then a mean and variance over 2^18 float64
  values;
* pure Python, three passes of: a byte loop over 2^18 bytes of P1-like
  text, the way a Python codec walks a raster.

Nothing here imports the program.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_ROWS, _DIM = 1 << 15, 8
_PERM = np.arange(_DIM) ^ 3
_TEXT = bytes(10 if i % 64 == 63 else 48 + (i * 7 >> 3) % 2 for i in range(1 << 18))
_REPEATS = 3  # passes of the Python part; the numpy part makes twice as many
_BUFFERS: list[tuple[np.ndarray, ...]] = []  # one set a thread, kept for the process's life


def _numpy_part(amps, moved, mixed, probs, rows, grid, centred) -> float:
    """Write every result into the buffers given, so the part allocates no large array."""
    half = _DIM // 2
    total = 0.0
    for _ in range(2 * _REPEATS):
        np.take(amps, _PERM, axis=1, out=moved)
        np.add(moved[:, :half], moved[:, half:], out=mixed[:, :half])
        np.subtract(moved[:, :half], moved[:, half:], out=mixed[:, half:])
        np.abs(mixed, out=probs)
        np.square(probs, out=probs)
        total += float(probs.sum(axis=1, out=rows).sum())
        np.subtract(grid, grid.mean(), out=centred)
        np.multiply(centred, centred, out=centred)
        total += float(centred.mean())
    return total


def _python_part() -> int:
    ones = 0
    for _ in range(_REPEATS):
        for byte in _TEXT:
            if byte == 48 or byte == 49:
                ones += byte - 48
    return ones


def _buffers() -> tuple[np.ndarray, ...]:
    amps = np.zeros((_ROWS, _DIM), dtype=np.complex128)
    amps[:, 0] = 1.0
    amps[::3, 5] = 0.5
    grid = (np.arange(1 << 18, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            >> np.uint64(40)).astype(np.float64)
    return (amps, np.empty_like(amps), np.empty_like(amps), np.empty(amps.shape),
            np.empty(_ROWS), grid, np.empty_like(grid))


def time_kernel(threads: int = 1) -> tuple[float, float]:
    """Seconds taken by the numpy part and by the pure-Python part.

    The numpy part runs once on each of `threads` threads at the same time,
    as the program's encoding threads do, so that it also slows when a
    second CPU is taken away.  Its arrays (about 18 MB a thread) are made on
    the first call and kept: the kernel allocates and frees no large block,
    so it leaves the allocator, and the program's peak memory, as it found
    them, but for that fixed amount.
    """
    while len(_BUFFERS) < threads:
        _BUFFERS.append(_buffers())
    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        for future in [pool.submit(_numpy_part, *b) for b in _BUFFERS[:threads]]:
            future.result()
        middle = time.perf_counter()
    _python_part()
    return middle - start, time.perf_counter() - middle
