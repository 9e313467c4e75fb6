"""Universal-share (n, n+1) multi-secret sharing of binary images.

Encryption runs one (n+1)-qubit circuit per pixel: X gates load the n
secret bits into qubits 1..n, then `encoding_circuit` puts qubit 0 (the
universal-share bit) into superposition with a Hadamard and entangles it
with a CNOT onto each secret qubit.  Measuring collapses the register to
one of two complementary branches, yielding the UniShare bit u and share
bits s_k = g_k XOR u.  `decrypt` XORs the UniShare back; `decode_pixel`
runs the receiver-side `decoding_circuit`, as the per-pixel reference.

The circuit is Clifford on a basis state, so `encrypt` runs the same
`encoding_circuit` program on a bit-plane engine instead of looping the
dense reference `encode_pixel`: its state is the packed output itself, one
whole P4 bit plane per qubit that every gate updates in place
(`_encode_planes`), and its H draws the keystream, already packed, straight
into plane 0 with `imaging.fill_keystream`.  Both routes take the same
per-pixel bit and are bit-identical.
`classical_encrypt` is the plain XOR oracle kept to cross-check them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .imaging import BinaryImage, fill_keystream, require_same_shape
from .qsim import (
    MAX_QUBITS,
    GateKind,
    GateOp,
    apply_gate,
    cnot,
    hadamard,
    measure_all,
    new_register,
    pauli_x,
)

# One qubit per secret plus the UniShare qubit.
MAX_ARITY = MAX_QUBITS - 1


class ConfigError(ValueError):
    """Arity out of range: the number of secrets or shares is not in 1..MAX_ARITY."""


def _check_arity(count: int, what: str) -> None:
    if not 1 <= count <= MAX_ARITY:
        raise ConfigError(f"need 1..{MAX_ARITY} {what}, got {count}")


@dataclass(frozen=True)
class PixelOutcome:
    """Measured UniShare bit and the n share bits for one pixel."""

    u: int
    s: tuple[int, ...]


@dataclass(frozen=True)
class ShareSet:
    """One UniShare plus the n same-sized share images produced by `encrypt`."""

    unishare: BinaryImage
    shares: tuple[BinaryImage, ...]

    def __post_init__(self):
        object.__setattr__(self, "shares", tuple(self.shares))
        _check_arity(len(self.shares), "shares")
        for share in self.shares:
            require_same_shape(self.unishare, share)

    @property
    def width(self) -> int:
        return self.unishare.width

    @property
    def height(self) -> int:
        return self.unishare.height


def encoding_circuit(n: int) -> list[GateOp]:
    """Gate program that follows the X layer loading the n secret bits.

    H puts qubit 0 (the UniShare bit) into superposition, then a CNOT from
    qubit 0 onto each secret qubit 1..n entangles them.
    """
    return [hadamard(0), *(cnot(0, j) for j in range(1, n + 1))]


def decoding_circuit() -> list[GateOp]:
    """Receiver gate program after the X layer loads (u, s_k): a CNOT from u onto s_k."""
    return [cnot(0, 1)]


def _run_dense(bits: tuple[int, ...], program: Sequence[GateOp]) -> np.ndarray:
    """Dense reference: X gates load `bits` into qubits 0.., then `program` runs."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    state = new_register(len(bits))
    for gate in [pauli_x(q) for q, bit in enumerate(bits) if bit] + list(program):
        state = apply_gate(state, gate)
    return state


def transmitter_state(secret_bits: Sequence[int]) -> np.ndarray:
    """Pre-measurement state of the encoding circuit for one pixel.

    Support is exactly two complementary basis states, |0, g_1..g_n> and
    |1, not(g_1)..not(g_n)>, each with probability 1/2.
    """
    g = tuple(secret_bits)
    _check_arity(len(g), "secret bits")
    return _run_dense((0, *g), encoding_circuit(len(g)))


def encode_pixel(secret_bits: Sequence[int], stream: rng.RngStream) -> PixelOutcome:
    """Run the per-pixel circuit once and measure u and s_1..s_n."""
    bits = measure_all(transmitter_state(secret_bits), stream)
    return PixelOutcome(u=int(bits[0]), s=tuple(int(b) for b in bits[1:]))


def decode_pixel(u: int, s_k: int) -> int:
    """Recover one secret bit by running the receiver circuit: CNOT from u onto s_k."""
    # Basis-state input, so the measurement is deterministic.
    return int(measure_all(_run_dense((u, s_k), decoding_circuit()), rng.RngStream(0, 0))[1])


def _encode_planes(
    program: Sequence[GateOp], secrets: Sequence[BinaryImage], master_seed: int,
    out: np.ndarray,
) -> None:
    """Encode the secrets into the whole planes of `out`, one pass per gate.

    `out` is a C-contiguous `(n + 1, height, row_bytes)` array, and plane q
    is qubit q's packed P4 rows (U, then S_1..S_n): the X layer loads the
    secrets into it, and every gate acts on it in place, so a CNOT is a
    byte XOR of one plane into another.  After its H, qubit 0 is only a
    control, so by deferred measurement it is measured where the H acts:
    `fill_keystream` fills its plane with the image's Born keystream, and
    the CNOTs carry the bits on.  Bit 0 gives qubit 0 the value 0, the
    lower basis index that `qsim.measure_all` takes on bit 0, as qubit 0 is
    the most significant and no gate changes it after the H.
    """
    # X layer: qubit 0 starts at 0 and qubits 1..n are the secret bits.
    out[0] = 0
    for k, img in enumerate(secrets, start=1):
        out[k] = img.rows
    measured = False  # qubit 0, once its H has acted
    for gate in program:
        t = gate.target
        if gate.kind is GateKind.CNOT and not (t == 0 and measured):
            out[t] ^= out[gate.control]
        elif gate.kind is GateKind.HADAMARD and t == 0 and not measured:
            fill_keystream(out[0], secrets[0].width, master_seed, rng.BORN_TAG)
            measured = True
        else:
            raise ValueError(f"engine cannot apply {gate}")


def encrypt(secrets: Sequence[BinaryImage], master_seed: int) -> ShareSet:
    """Encrypt n same-sized secrets into a UniShare plus n share images.

    n is len(secrets), 1..MAX_ARITY.  Pixel (x, y) takes bit 8*y*row_bytes + x
    of the keystream under master_seed (mod 2^256), which fixes every output bit.
    The UniShare and the shares are views of one packed, read-only
    `(n + 1, height, row_bytes)` array.
    """
    secrets = list(secrets)
    n = len(secrets)
    _check_arity(n, "secret images")
    for other in secrets[1:]:
        require_same_shape(secrets[0], other)

    width, height = secrets[0].width, secrets[0].height
    out = np.empty((n + 1, *secrets[0].rows.shape), dtype=np.uint8)  # plane q is qubit q
    _encode_planes(encoding_circuit(n), secrets, master_seed, out)
    out.flags.writeable = False  # the images below are views of it

    unishare, *shares = (BinaryImage.from_rows(width, height, plane) for plane in out)
    return ShareSet(unishare, shares)


def classical_encrypt(
    secrets: Sequence[BinaryImage], mask: BinaryImage
) -> list[BinaryImage]:
    """XOR oracle: S_k = G_k XOR mask, pixelwise."""
    return [img ^ mask for img in secrets]


def decrypt(unishare: BinaryImage, share: BinaryImage) -> BinaryImage:
    """Recover the secret behind `share`; a wrong UniShare just yields noise."""
    return unishare ^ share


def decrypt_all(share_set: ShareSet) -> list[BinaryImage]:
    """Recover every secret, in share order."""
    return [decrypt(share_set.unishare, share) for share in share_set.shares]
