"""Secret images made from the benchmark seed, without the program's fixtures.

Each kind keeps its ones-fraction nearly fixed across seeds, because the
engine's cost grows with the number of set secret bits: a seed changes
which pixels are set, not how much work there is.
"""
from __future__ import annotations

import numpy as np

# 5x7 capitals, 1 = ink.
_FONT = {
    "A": ["01110", "10001", "10001", "11111", "10001", "10001", "10001"],
    "E": ["11111", "10000", "10000", "11110", "10000", "10000", "11111"],
    "H": ["10001", "10001", "10001", "11111", "10001", "10001", "10001"],
    "I": ["01110", "00100", "00100", "00100", "00100", "00100", "01110"],
    "L": ["10000", "10000", "10000", "10000", "10000", "10000", "11111"],
    "N": ["10001", "11001", "10101", "10011", "10001", "10001", "10001"],
    "O": ["01110", "10001", "10001", "10001", "10001", "10001", "01110"],
    "R": ["11110", "10001", "10001", "11110", "10100", "10010", "10001"],
    "S": ["01111", "10000", "10000", "01110", "00001", "00001", "11110"],
    "T": ["11111", "00100", "00100", "00100", "00100", "00100", "00100"],
    " ": ["00000"] * 7,
}
_GLYPHS = np.array(
    [[[int(c) for c in row] for row in rows] for rows in _FONT.values()], dtype=np.uint8
)
_SPACE = len(_FONT) - 1
_CELL = (9, 6)  # glyph plus one blank row above/below and one blank column


def noise(gen: np.random.Generator, width: int, height: int) -> np.ndarray:
    return gen.integers(0, 2, size=(height, width), dtype=np.uint8)


def text_page(gen: np.random.Generator, width: int, height: int) -> np.ndarray:
    """Random capitals and spaces on a grid of 5x7 cells, scaled up on big pages."""
    scale = max(1, min(width, height) // 256)
    cell_h, cell_w = _CELL[0] * scale, _CELL[1] * scale
    rows, cols = height // cell_h + 1, width // cell_w + 1
    letters = gen.integers(0, _SPACE, size=(rows, cols))
    letters[gen.random((rows, cols)) < 0.2] = _SPACE
    cells = np.zeros((rows, cols, *_CELL), dtype=np.uint8)
    cells[:, :, 1:8, 0:5] = _GLYPHS[letters]
    page = cells.transpose(0, 2, 1, 3).reshape(rows * _CELL[0], cols * _CELL[1])
    page = np.kron(page, np.ones((scale, scale), dtype=np.uint8))
    return np.ascontiguousarray(page[:height, :width])


def checkerboard(gen: np.random.Generator, width: int, height: int) -> np.ndarray:
    square = int(gen.choice([1, 2, 4, 8]))
    y, x = np.indices((height, width))
    phase = int(gen.integers(0, 2))
    return ((x // square + y // square + phase) & 1).astype(np.uint8)


def blank_page(gen: np.random.Generator, width: int, height: int) -> np.ndarray:
    """A nearly white page: a few isolated specks, about one pixel in a thousand."""
    return (gen.random((height, width)) < 1e-3).astype(np.uint8)


KINDS = {
    "noise": noise,
    "text": text_page,
    "checkerboard": checkerboard,
    "blank": blank_page,
}
