import numpy as np
import pytest
from hypothesis import settings

from qvmss import cli, scheme
from qvmss.imaging import BinaryImage

# No per-example deadline: a deadline times an example, it checks no output, and
# under host load a correct example can overrun hypothesis's default of 200 ms.
settings.register_profile("qvmss", deadline=None)
settings.load_profile("qvmss")


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


@pytest.fixture
def constant_shares(monkeypatch, flat_image):
    """Patch `cli.encrypt` so that every share is all zeros: a constant image, which has no
    correlation with anything."""
    real_encrypt = cli.encrypt

    def encrypt(secrets, seed):
        share_set = real_encrypt(secrets, seed)
        zeros = flat_image(share_set.width, share_set.height, 0)
        return scheme.ShareSet(share_set.unishare, [zeros] * len(share_set.shares))

    monkeypatch.setattr(cli, "encrypt", encrypt)
