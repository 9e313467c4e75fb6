import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmss.metrics import uniformity_bound
from qvmss.qsim import (
    MAX_QUBITS,
    GateKind,
    GateOp,
    StateError,
    apply_gate,
    cnot,
    hadamard,
    measure_all,
    new_register,
    pauli_x,
)
from qvmss.rng import RngStream
from qvmss.scheme import MAX_ARITY, transmitter_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def basis_state(num_qubits, index):
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def random_state(num_qubits, seed):
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << num_qubits) + 1j * gen.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return amps


# ---------------------------------------------------------------- registers

def test_new_register_single_qubit_is_ket_zero():
    reg = new_register(1)
    assert np.array_equal(reg, np.array([1, 0], dtype=complex))


def test_new_register_three_qubits():
    reg = new_register(3)
    assert reg.shape == (8,)
    assert reg[0] == 1.0
    assert np.count_nonzero(reg) == 1


@pytest.mark.parametrize("bad", [0, -1, 25, 100])
def test_new_register_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        new_register(bad)


def test_register_cap_is_the_widest_encoding_register():
    assert MAX_QUBITS == MAX_ARITY + 1
    assert len(transmitter_state([1] * MAX_ARITY)) == 1 << MAX_QUBITS
    with pytest.raises(ValueError):
        new_register(MAX_QUBITS + 1)


@pytest.mark.parametrize("use", ["apply_gate", "measure_all"])
def test_register_shape_is_refused_where_it_is_used(use):
    # A length that is not a power of two, or is one outside 2..2^MAX_QUBITS, is refused,
    # and so is a 2-D array; measure_all draws no bit for any of them.
    stub = _FixedBit(0)
    for shape in (0, 1, 3, 6, 1 << (MAX_QUBITS + 1), (2, 2)):
        bad = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match="1-D of length 2\\^k"):
            apply_gate(bad, pauli_x(0)) if use == "apply_gate" else measure_all(bad, stub)
    assert stub.calls == 0


# ---------------------------------------------------------------- gate ops

def test_cnot_requires_distinct_qubits():
    with pytest.raises(ValueError):
        cnot(1, 1)


def test_single_qubit_gate_rejects_control():
    with pytest.raises(ValueError):
        GateOp(GateKind.PAULI_X, 0, control=1)


def test_cnot_requires_control():
    with pytest.raises(ValueError):
        GateOp(GateKind.CNOT, 0)


def test_apply_gate_index_out_of_range():
    with pytest.raises(IndexError):
        apply_gate(new_register(2), pauli_x(2))
    with pytest.raises(IndexError):
        apply_gate(new_register(2), cnot(0, 5))


# --------------------------------------------------------------- gate action

def test_hadamard_on_zero_gives_equal_superposition():
    out = apply_gate(new_register(1), hadamard(0))
    assert np.allclose(out, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_pauli_x_swaps_basis_states():
    out = apply_gate(new_register(1), pauli_x(0))
    assert np.array_equal(out, np.array([0, 1], dtype=complex))
    back = apply_gate(out, pauli_x(0))
    assert np.array_equal(back, np.array([1, 0], dtype=complex))


def test_x_on_qubit0_targets_most_significant_bit():
    out = apply_gate(new_register(3), pauli_x(0))
    assert (abs(out) ** 2).tolist() == [0, 0, 0, 0, 1, 0, 0, 0]  # |100>


def test_cnot_flips_target_when_control_set():
    # |10> -> |11>
    state = apply_gate(new_register(2), pauli_x(0))
    out = apply_gate(state, cnot(0, 1))
    assert (abs(out) ** 2).tolist() == [0, 0, 0, 1]


def test_cnot_leaves_target_when_control_clear():
    # |01> stays |01>
    state = apply_gate(new_register(2), pauli_x(1))
    out = apply_gate(state, cnot(0, 1))
    assert (abs(out) ** 2).tolist() == [0, 1, 0, 0]


def test_cnot_with_reversed_roles():
    # control on qubit 1: |01> -> |11>
    state = apply_gate(new_register(2), pauli_x(1))
    out = apply_gate(state, cnot(1, 0))
    assert (abs(out) ** 2).tolist() == [0, 0, 0, 1]


def test_apply_gate_leaves_input_untouched():
    reg = new_register(2)
    before = reg.copy()
    for gate in (pauli_x(0), hadamard(1), cnot(0, 1)):
        # A caller that writes into a result must not change the input.
        assert not np.shares_memory(apply_gate(reg, gate), reg)
    assert np.array_equal(reg, before)


def _gates_for(num_qubits):
    ops = [pauli_x(t) for t in range(num_qubits)]
    ops += [hadamard(t) for t in range(num_qubits)]
    ops += [
        cnot(c, t)
        for c in range(num_qubits)
        for t in range(num_qubits)
        if c != t
    ]
    return ops


@settings(max_examples=40)
@given(num_qubits=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
def test_every_gate_preserves_norm(num_qubits, seed):
    state = random_state(num_qubits, seed)
    for gate in _gates_for(num_qubits):
        out = apply_gate(state, gate)
        assert abs((abs(out) ** 2).sum() - 1.0) < 1e-12


@settings(max_examples=40)
@given(num_qubits=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
def test_every_gate_is_self_inverse(num_qubits, seed):
    state = random_state(num_qubits, seed)
    for gate in _gates_for(num_qubits):
        twice = apply_gate(apply_gate(state, gate), gate)
        assert np.allclose(twice, state, atol=1e-12)


def _bit(num_qubits, qubit):
    return 1 << (num_qubits - 1 - qubit)


def _gate_matrix(num_qubits, gate):
    """Dense 2^k x 2^k matrix of `gate`, built from its definition."""
    if gate.kind is GateKind.CNOT:
        c, t = _bit(num_qubits, gate.control), _bit(num_qubits, gate.target)
        matrix = np.zeros((1 << num_qubits, 1 << num_qubits))
        for i in range(1 << num_qubits):
            matrix[i ^ t if i & c else i, i] = 1.0
        return matrix
    single = {GateKind.PAULI_X: np.array([[0, 1], [1, 0]]),
              GateKind.HADAMARD: np.array([[1, 1], [1, -1]]) * INV_SQRT2}[gate.kind]
    matrix = np.ones((1, 1))
    for q in range(num_qubits):  # qubit 0 is the leftmost factor
        matrix = np.kron(matrix, single if q == gate.target else np.eye(2))
    return matrix


def _gate_by_index(psi, num_qubits, gate):
    """`gate` applied to `psi` through basis-index arithmetic, one gather per gate."""
    i = np.arange(psi.size)
    b = _bit(num_qubits, gate.target)
    if gate.kind is GateKind.PAULI_X:
        return psi[i ^ b]
    if gate.kind is GateKind.CNOT:
        return psi[i ^ np.where(i & _bit(num_qubits, gate.control), b, 0)]
    a0, a1 = psi[i & ~b], psi[i | b]
    return np.where(i & b, a0 - a1, a0 + a1) * INV_SQRT2


def test_every_gate_matches_its_definition():
    # Every gate on every position, against its dense matrix.
    for num_qubits in range(1, 5):
        state = random_state(num_qubits, num_qubits)
        for gate in _gates_for(num_qubits):
            expected = _gate_matrix(num_qubits, gate) @ state
            assert np.allclose(apply_gate(state, gate), expected, rtol=0, atol=1e-12), gate
    # Wide registers on the first, middle and last qubits, byte for byte.
    for num_qubits in (9, MAX_QUBITS):
        state = random_state(num_qubits, num_qubits)
        ends = (0, num_qubits // 2, num_qubits - 1)
        gates = [pauli_x(q) for q in ends] + [hadamard(q) for q in ends]
        gates += [cnot(c, t) for c in ends for t in ends if c != t]
        for gate in gates:
            expected = _gate_by_index(state, num_qubits, gate)
            assert apply_gate(state, gate).tobytes() == expected.tobytes(), gate


def test_gate_results_stay_finite():
    state = random_state(3, 99)
    for gate in _gates_for(3):
        assert np.isfinite(apply_gate(state, gate)).all()


# --------------------------------------------------------------- measurement

def test_measure_basis_state_is_deterministic():
    state = basis_state(3, 0b101)
    for stream_index in range(20):
        assert measure_all(state, RngStream(7, stream_index)) == "101"


def test_measure_bitstring_order_is_q0_first():
    state = apply_gate(new_register(3), pauli_x(0))
    state = apply_gate(state, pauli_x(1))  # |110>
    assert measure_all(state, RngStream(0, 0)) == "110"


def test_measure_repeatable_for_same_stream():
    plus = apply_gate(new_register(1), hadamard(0))
    for stream_index in range(50):
        first = measure_all(plus, RngStream(3, stream_index))
        again = measure_all(plus, RngStream(3, stream_index))
        assert first == again


def test_measure_born_frequency_on_plus_state():
    plus = apply_gate(new_register(1), hadamard(0))
    draws = 4096
    ones = sum(
        measure_all(plus, RngStream(2718, stream)) == "1" for stream in range(draws)
    )
    assert abs(ones / draws - 0.5) <= uniformity_bound(draws)


def test_measure_rejects_unnormalized_state():
    bad = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(StateError):
        measure_all(bad, RngStream(0, 0))


def test_measure_consumes_exactly_one_variate():
    plus = apply_gate(new_register(1), hadamard(0))
    stream = RngStream(5, 5)
    measure_all(plus, stream)
    assert stream._cursor == 1


class _FixedBit:
    """A stream stub that always draws `bit` and counts its draws."""

    def __init__(self, bit):
        self.bit = bit
        self.calls = 0

    def next_bit(self):
        self.calls += 1
        return self.bit


def test_measure_rejects_support_wider_than_two_without_drawing():
    # H/CNOT on a basis state never gives three nonzero amplitudes.
    amps = np.sqrt(np.array([0.5, 0.3, 0.2, 0.0], dtype=complex))
    stub = _FixedBit(0)
    with pytest.raises(StateError, match="at most two branches"):
        measure_all(amps, stub)
    assert stub.calls == 0


def test_measure_rejects_unequal_branches_without_drawing():
    # H/CNOT on a basis state never gives two branches of unequal probability.
    stub = _FixedBit(0)
    with pytest.raises(StateError, match="one fair bit"):
        measure_all(np.sqrt(np.array([0.3, 0.7], dtype=complex)), stub)
    assert stub.calls == 0


def test_measure_rejects_nonfinite_without_drawing():
    # A NaN or inf amplitude makes the norm NaN or inf, which the norm check refuses.
    for amps in ([np.nan, 0], [np.inf, 0], [1, complex(0, np.nan)]):
        stub = _FixedBit(0)
        with pytest.raises(StateError, match="norm"):
            measure_all(np.array(amps, dtype=complex), stub)
        assert stub.calls == 0


def test_measure_two_branch_boundary():
    plus = apply_gate(new_register(1), hadamard(0))
    assert measure_all(plus, _FixedBit(0)) == "0"
    assert measure_all(plus, _FixedBit(1)) == "1"
