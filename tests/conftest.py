import numpy as np
import pytest

from qvmss import cli, scheme
from qvmss.imaging import BinaryImage


@pytest.fixture
def flat_image():
    """`flat_image(width, height, bit)`: an image whose every pixel is `bit`."""
    return lambda width, height, bit: BinaryImage(width, height, np.full(width * height, bit, np.uint8))


@pytest.fixture
def leaky_first_share(monkeypatch):
    """Patch `cli.encrypt` so that S1 is G1: a share that carries its secret as it is."""
    real_encrypt = cli.encrypt

    def encrypt(secrets, seed):
        share_set = real_encrypt(secrets, seed)
        return scheme.ShareSet(share_set.unishare, (secrets[0], *share_set.shares[1:]))

    monkeypatch.setattr(cli, "encrypt", encrypt)
