"""Universal-share (n, n+1) multi-secret sharing of binary images.

Encryption runs one (n+1)-qubit circuit per pixel: X gates load the n
secret bits into qubits 1..n, then `encoding_circuit` puts qubit 0 (the
universal-share bit) into superposition with a Hadamard and entangles it
with a CNOT onto each secret qubit.  Measuring collapses the register to
one of two complementary branches, yielding the UniShare bit u and share
bits s_k = g_k XOR u.  `decrypt` XORs the UniShare back; `decode_pixel`
runs the receiver-side CNOT circuit, as the per-pixel reference.

The circuit is Clifford on a basis state, so `encrypt` runs the same
`encoding_circuit` program on a bit-plane engine instead of looping the
dense reference `encode_pixel`: its per-pixel state is bits only, one plane
per qubit, and its two branch amplitudes are scalars (`_encode_blocks`).
Both routes draw the same per-pixel variate and are bit-identical.
`classical_encrypt` is the plain XOR oracle kept to cross-check them.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import rng
from .imaging import BinaryImage, require_same_shape
from .qsim import (
    INV_SQRT2,
    MAX_QUBITS,
    NORM_TOLERANCE,
    GateKind,
    GateOp,
    StateError,
    StateVector,
    apply_gate,
    cnot,
    hadamard,
    measure_all,
    new_register,
    pauli_x,
)

# One qubit per secret plus the UniShare qubit.
MAX_ARITY = MAX_QUBITS - 1

# Pixels per engine block: bounds the scratch arrays and is the unit of thread work.
_BLOCK_PIXELS = 1 << 16


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


def _validated_bits(secret_bits: Sequence[int]) -> tuple[int, ...]:
    g = tuple(int(b) for b in secret_bits)
    _check_arity(len(g), "secret bits")
    if any(b not in (0, 1) for b in g):
        raise ValueError(f"secret bits must be 0 or 1, got {g}")
    return g


def encoding_circuit(n: int) -> list[GateOp]:
    """Gate program that follows the X layer loading the n secret bits.

    H puts qubit 0 (the UniShare bit) into superposition, then a CNOT from
    qubit 0 onto each secret qubit 1..n entangles them.
    """
    return [hadamard(0), *(cnot(0, j) for j in range(1, n + 1))]


def transmitter_state(secret_bits: Sequence[int]) -> StateVector:
    """Pre-measurement state of the encoding circuit for one pixel.

    Support is exactly two complementary basis states, |0, g_1..g_n> and
    |1, not(g_1)..not(g_n)>, each with probability 1/2.
    """
    g = _validated_bits(secret_bits)
    state = new_register(len(g) + 1)
    for j, bit in enumerate(g):
        if bit:
            state = apply_gate(state, pauli_x(j + 1))
    for gate in encoding_circuit(len(g)):
        state = apply_gate(state, gate)
    return state


def encode_pixel(secret_bits: Sequence[int], stream: rng.RngStream) -> PixelOutcome:
    """Run the per-pixel circuit once and measure u and s_1..s_n."""
    bits = measure_all(transmitter_state(secret_bits), stream)
    return PixelOutcome(u=int(bits[0]), s=tuple(int(b) for b in bits[1:]))


def decode_pixel(u: int, s_k: int) -> int:
    """Recover one secret bit by running the receiver circuit: CNOT from u onto s_k."""
    if u not in (0, 1) or s_k not in (0, 1):
        raise ValueError(f"decode_pixel expects bits, got u={u!r} s_k={s_k!r}")
    state = new_register(2)
    if u:
        state = apply_gate(state, pauli_x(0))
    if s_k:
        state = apply_gate(state, pauli_x(1))
    state = apply_gate(state, cnot(0, 1))
    # Basis-state input, so the measurement is deterministic.
    return int(measure_all(state, rng.RngStream(0, 0))[1])


def _encode_blocks(
    program: Sequence[GateOp], secrets: Sequence[BinaryImage], master_seed: int,
    starts: Sequence[int], u_out: np.ndarray, s_out: np.ndarray,
) -> None:
    """Encode the pixel blocks that begin at `starts` into u_out and s_out.

    The per-pixel state is one bit plane per qubit, kept with the variates in
    buffers that every block reuses, so a block's cost does not follow the C
    allocator.  After the H the branches are `planes` and `planes` with the
    qubits in `flip` negated; CNOT is linear, so `flip` and both scalar branch
    amplitudes are shared by all pixels.  Pixel p draws from stream p.
    """
    owned = np.empty((len(secrets) + 1, _BLOCK_PIXELS), dtype=np.uint8)  # one plane per qubit
    masks = np.empty((2, _BLOCK_PIXELS), dtype=bool)
    offsets = np.arange(_BLOCK_PIXELS, dtype=np.uint64)
    streams, draws = np.empty_like(offsets), np.empty(_BLOCK_PIXELS)
    for lo in starts:
        m = min(_BLOCK_PIXELS, u_out.size - lo)
        zero_is_lower, take_flipped, u = masks[0, :m], masks[1, :m], draws[:m]
        # X layer: qubit 0 starts at 0 and qubits 1..n are the secret bits, read in place.
        planes = [owned[0, :m], *(img.bits[lo:lo + m] for img in secrets)]
        planes[0].fill(0)
        a0, a1, flip = 1.0, 0.0, set()  # one branch of amplitude 1 until the H splits it
        for gate in program:
            t = gate.target
            if gate.kind is GateKind.CNOT:
                # Into t's own plane: the secret planes are read-only views of the images.
                planes[t] = np.bitwise_xor(planes[t], planes[gate.control], out=owned[t, :m])
                if gate.control in flip:
                    flip ^= {t}
            elif gate.kind is GateKind.HADAMARD and not flip:
                # |b> -> (|0> + (-1)^b |1>)/sqrt2; the sign would show only under a second H.
                a0 = a1 = a0 * INV_SQRT2
                planes[t] = owned[t, :m]
                planes[t].fill(0)
                flip = {t}
            else:
                raise ValueError(f"engine cannot apply {gate} to {1 + bool(flip)} branches")
        p0, p1 = a0 * a0, a1 * a1
        if abs(p0 + p1 - 1.0) > NORM_TOLERANCE:
            raise StateError("simulated pixel state drifted off unit norm")
        # Born sampling, lower basis index first: the branches first differ at the
        # most significant qubit in `flip`, so branch 0 is lower where that bit is 0.
        np.equal(planes[min(flip, default=0)], 0, out=zero_is_lower)
        block_streams = np.add(offsets[:m], np.uint64(lo), out=streams[:m])
        rng.unit_array(master_seed, block_streams, 0, out=u, scratch=block_streams)
        np.less(u, p1, out=take_flipped)
        np.greater_equal(u, p0, out=take_flipped, where=zero_is_lower)
        for q, out in enumerate([u_out[lo:lo + m], *s_out[:, lo:lo + m]]):
            np.bitwise_xor(planes[q], take_flipped.view(np.uint8) if q in flip else 0, out=out)


def encrypt(
    secrets: Sequence[BinaryImage], master_seed: int, *, threads: int = 1
) -> ShareSet:
    """Encrypt n same-sized secrets into a UniShare plus n share images.

    n is len(secrets), 1..MAX_ARITY.  Pixel p uses RNG stream p, so the
    result is bit-exact reproducible from master_seed (taken mod 2^64)
    regardless of `threads`.  Threads split the work at block boundaries,
    so an image of one block runs inline.
    """
    secrets = list(secrets)
    n = len(secrets)
    _check_arity(n, "secret images")
    for other in secrets[1:]:
        require_same_shape(secrets[0], other)

    width, height = secrets[0].width, secrets[0].height
    num_pixels = width * height

    u_out = np.empty(num_pixels, dtype=np.uint8)
    s_out = np.empty((n, num_pixels), dtype=np.uint8)
    encode = partial(_encode_blocks, encoding_circuit(n), secrets, master_seed,
                     u_out=u_out, s_out=s_out)
    starts = range(0, num_pixels, _BLOCK_PIXELS)
    threads = min(threads, len(starts))
    if threads <= 1:
        encode(starts)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(encode, [starts[k::threads] for k in range(threads)]))

    shares = tuple(BinaryImage(width, height, row) for row in s_out)
    return ShareSet(BinaryImage(width, height, u_out), shares)


def classical_encrypt(
    secrets: Sequence[BinaryImage], mask: BinaryImage
) -> list[BinaryImage]:
    """XOR oracle: S_k = G_k XOR mask, pixelwise."""
    secrets = list(secrets)
    for img in secrets:
        require_same_shape(img, mask)
    return [img ^ mask for img in secrets]


def decrypt(unishare: BinaryImage, share: BinaryImage) -> BinaryImage:
    """Recover the secret behind `share`; a wrong UniShare just yields noise."""
    return unishare ^ share


def decrypt_all(share_set: ShareSet) -> list[BinaryImage]:
    """Recover every secret, in share order."""
    return [decrypt(share_set.unishare, share) for share in share_set.shares]
