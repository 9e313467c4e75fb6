import numpy as np
import pytest

from qvmss.imaging import BinaryImage


@pytest.fixture
def flat_image():
    """`flat_image(width, height, bit)`: an image whose every pixel is `bit`."""
    return lambda width, height, bit: BinaryImage(width, height, np.full(width * height, bit, np.uint8))

