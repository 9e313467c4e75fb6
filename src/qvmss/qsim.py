"""Minimal statevector simulator for small qubit registers.

Conventions used throughout the package:

* Basis index bit order: qubit 0 is the MOST significant bit, so for a
  3-qubit register the basis state |q0 q1 q2> = |110> has index 6.
  In the (2,) * k reshaped state axis j is qubit j; `_half(j, b)` indexes the half where j is b.
* Gate set is exactly what the share scheme needs: Pauli-X, Hadamard and
  CNOT, with the standard matrices H = (1/sqrt 2) [[1, 1], [1, -1]] and
  X = [[0, 1], [1, 0]].
* Measurement samples the Born distribution from a caller-supplied
  RngStream and does not return a collapsed state; registers here are
  single-use.  It takes at most two nonzero amplitudes of equal probability,
  all that an X/H/CNOT circuit on a basis state can produce (a stabilizer
  state measures uniformly over its support), so one fair bit decides.

A register is a 1-D complex array of 2^k amplitudes, k in 1..MAX_QUBITS = 17 (the
UniShare qubit plus 16 secret qubits).  `new_register` makes a valid one, `apply_gate`
checks the shape it indexes, and `measure_all` checks the shape and the norm, which
refuses NaN or inf, before it draws a bit; an X, H or CNOT keeps amplitudes finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import RngStream

MAX_QUBITS = 17

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Norm drift or branch inequality tolerated before measurement refuses a state.
NORM_TOLERANCE = 1e-9


class StateError(ValueError):
    """Raised when a register is not normalized, or too wide or uneven for one fair bit."""


class GateKind(Enum):
    PAULI_X = "x"
    HADAMARD = "h"
    CNOT = "cnot"


@dataclass(frozen=True)
class GateOp:
    """Symbolic gate instruction; `control` is set only for CNOT."""

    kind: GateKind
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.target < 0:
            raise ValueError(f"negative target qubit {self.target}")
        if self.kind is GateKind.CNOT:
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control < 0:
                raise ValueError(f"negative control qubit {self.control}")
            if self.control == self.target:
                raise ValueError("CNOT control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind.name} takes no control qubit")


def pauli_x(target: int) -> GateOp:
    return GateOp(GateKind.PAULI_X, target)


def hadamard(target: int) -> GateOp:
    return GateOp(GateKind.HADAMARD, target)


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, target, control=control)


def new_register(num_qubits: int) -> np.ndarray:
    """Fresh register with every qubit in |0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
    amplitudes[0] = 1.0
    return amplitudes


def _num_qubits(register: np.ndarray) -> int:
    """k for a 1-D register of 2^k amplitudes with k in 1..MAX_QUBITS."""
    size = register.size
    if register.ndim != 1 or not 2 <= size <= 1 << MAX_QUBITS or size & (size - 1):
        raise ValueError(f"amplitudes must be 1-D of length 2^k for k in 1..{MAX_QUBITS}, "
                         f"got shape {register.shape}")
    return size.bit_length() - 1


def _check_qubit(index: int, width: int, role: str) -> None:
    if not 0 <= index < width:
        raise IndexError(f"{role} qubit {index} out of range for {width}-qubit register")


def _half(qubit: int, bit: int) -> tuple:
    return (slice(None),) * qubit + (bit,)


def apply_gate(register: np.ndarray, gate: GateOp) -> np.ndarray:
    """Unitary image of `register` under `gate`, in new memory; the input is left untouched."""
    k, t, c = _num_qubits(register), gate.target, gate.control
    _check_qubit(t, k, "target")
    if c is not None:
        _check_qubit(c, k, "control")

    psi = register.reshape([2] * k)
    if gate.kind is GateKind.PAULI_X:
        out = np.flip(psi, axis=t).copy()
    elif gate.kind is GateKind.HADAMARD:
        lo, hi = _half(t, 0), _half(t, 1)
        a0, a1 = psi[lo], psi[hi]
        out = np.empty_like(psi)
        out[lo] = (a0 + a1) * INV_SQRT2
        out[hi] = (a0 - a1) * INV_SQRT2
    else:  # CNOT: flip the target within the control=1 half, whose axes skip the control's
        out = psi.copy()
        out[_half(c, 1)] = np.flip(psi[_half(c, 1)], axis=t - (t > c))

    return out.reshape(-1)


def measure_all(register: np.ndarray, rng: RngStream) -> str:
    """Sample a full computational-basis outcome, q0 first in the bitstring.

    Consumes exactly one fair bit and picks between the (at most two)
    nonzero amplitudes: the lower basis index on 0.  A wider support, or two
    branches of unequal probability, is refused before any bit is drawn.
    """
    k = _num_qubits(register)
    probs = np.abs(register) ** 2
    total = probs.sum()
    if not abs(total - 1.0) <= NORM_TOLERANCE:  # also true of a NaN or inf total
        raise StateError(f"state norm^2 = {total!r} deviates from 1 beyond {NORM_TOLERANCE}")

    support = np.flatnonzero(probs)
    if support.size > 2:
        raise StateError(f"measurement takes at most two branches, got {support.size}")
    first, last = probs[support[0]], probs[support[-1]]
    if abs(first - last) > NORM_TOLERANCE:
        raise StateError(f"one fair bit cannot pick between probabilities {first!r}, {last!r}")
    outcome = int(support[-1] if rng.next_bit() else support[0])
    return format(outcome, f"0{k}b")
