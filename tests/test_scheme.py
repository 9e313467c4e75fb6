import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import scheme
from qvmss.imaging import BinaryImage, ShapeMismatchError, make_fixture
from qvmss.qsim import StateError, cnot, hadamard, pauli_x
from qvmss.rng import RngStream, draw_unit, u64_array
from qvmss.scheme import (
    MAX_ARITY,
    ConfigError,
    ShareSet,
    classical_encrypt,
    decode_pixel,
    decrypt,
    decrypt_all,
    encode_pixel,
    encoding_circuit,
    encrypt,
    transmitter_state,
)


def find_stream(master_seed, want_high):
    """First stream index whose opening draw forces the wanted UniShare branch."""
    for stream in range(10_000):
        high = draw_unit(master_seed, stream, 0) >= 0.5
        if high == want_high:
            return stream
    raise AssertionError("no stream with the wanted first draw")


def random_images(n, width, height, seed):
    return [make_fixture("random", width, height, seed=seed + i) for i in range(n)]


# -------------------------------------------------------- transmitter state

def test_transmitter_state_two_secret_zeros_is_ghz_form():
    probs = transmitter_state([0, 0]).probabilities()
    assert np.flatnonzero(probs).tolist() == [0, 7]
    assert np.allclose(probs[[0, 7]], 0.5, rtol=0, atol=1e-12)


def test_transmitter_state_single_one():
    probs = transmitter_state([1]).probabilities()
    assert np.flatnonzero(probs).tolist() == [1, 2]  # |01> and |10>
    assert np.allclose(probs[[1, 2]], 0.5, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transmitter_state_support_is_two_complementary_branches(n):
    full_mask = (1 << (n + 1)) - 1
    for value in range(1 << n):
        g = [(value >> (n - 1 - j)) & 1 for j in range(n)]
        probs = transmitter_state(g).probabilities()
        support = np.flatnonzero(probs)
        assert len(support) == 2
        i0, i1 = support
        assert i0 ^ i1 == full_mask
        assert np.allclose(probs[support], 0.5, rtol=0, atol=1e-12)
        # low branch carries g verbatim behind a 0 UniShare bit
        assert i0 == value


def test_transmitter_state_rejects_bad_arity():
    with pytest.raises(ConfigError):
        transmitter_state([])
    with pytest.raises(ConfigError):
        transmitter_state([0] * 17)


def test_transmitter_state_rejects_non_bits():
    with pytest.raises(ValueError):
        transmitter_state([0, 2])


# ------------------------------------------------------------- encode_pixel

def test_encode_pixel_forced_high_branch_complements_secret():
    stream = find_stream(99, want_high=True)
    outcome = encode_pixel([0], RngStream(99, stream))
    assert outcome.u == 1
    assert outcome.s == (1,)


def test_encode_pixel_forced_low_branch_passes_secret_through():
    stream = find_stream(99, want_high=False)
    outcome = encode_pixel([1, 1], RngStream(99, stream))
    assert outcome.u == 0
    assert outcome.s == (1, 1)


def test_encode_pixel_outcomes_and_frequency():
    trials = 4096
    seen = {}
    ones = 0
    for stream in range(trials):
        outcome = encode_pixel([1, 0], RngStream(1234, stream))
        seen[(outcome.u, outcome.s)] = seen.get((outcome.u, outcome.s), 0) + 1
        ones += outcome.u
    assert set(seen) == {(0, (1, 0)), (1, (0, 1))}
    bound = 4.0 * 0.5 / math.sqrt(trials)
    assert abs(ones / trials - 0.5) <= bound


@settings(max_examples=80)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32),
)
def test_encode_pixel_share_is_secret_xor_unishare(bits, seed, stream):
    outcome = encode_pixel(bits, RngStream(seed, stream))
    assert outcome.s == tuple(b ^ outcome.u for b in bits)


# ------------------------------------------------------------------ encrypt

def test_encrypt_all_zero_secret_share_equals_unishare():
    g = [make_fixture("all_zero", 4, 4)]
    share_set = encrypt(g, 5)
    assert share_set.shares[0] == share_set.unishare


def test_encrypt_pairwise_xor_identity_small():
    g1 = BinaryImage(2, 2, [0, 1, 1, 0])
    g2 = BinaryImage(2, 2, [1, 1, 0, 0])
    share_set = encrypt([g1, g2], 31)
    s1, s2 = share_set.shares
    assert (s1 ^ s2) == (g1 ^ g2)
    assert (s1 ^ s2) == BinaryImage(2, 2, [1, 0, 1, 0])


def test_encrypt_round_trip_64():
    secrets = random_images(2, 64, 64, seed=400)
    recovered = decrypt_all(encrypt(secrets, 42))
    assert recovered[0] == secrets[0]
    assert recovered[1] == secrets[1]


def test_encrypt_is_reproducible():
    secrets = random_images(2, 32, 32, seed=88)
    a = encrypt(secrets, 1313)
    b = encrypt(secrets, 1313)
    assert a.unishare == b.unishare
    assert a.shares == b.shares


def test_encrypt_threads_match_serial():
    # 300x300 spans two engine blocks, so threads > 1 reach the pool.
    secrets = random_images(3, 300, 300, seed=9)
    serial = encrypt(secrets, 777, threads=1)
    for threads in (2, 3):
        parallel = encrypt(secrets, 777, threads=threads)
        assert serial.unishare == parallel.unishare
        assert serial.shares == parallel.shares


def test_encrypt_threads_capped_at_block_count(pool_sizes):
    one_block = random_images(1, 256, 256, seed=3)
    assert encrypt(one_block, 4, threads=8) == encrypt(one_block, 4)
    assert pool_sizes == []
    three_blocks = random_images(1, 256, 600, seed=3)
    assert encrypt(three_blocks, 4, threads=8) == encrypt(three_blocks, 4)
    assert pool_sizes == [3]


# SHA-256 over the bits of U, S_1, ..., S_n from encrypt(seed 7) on a 300x300
# image (two engine blocks); secret k is bit k of stream draws under seed 11.
ENGINE_GOLDEN = {
    1: "c970f821ecb4c4b5f030b9bcd1b83bd8233e73eab45c4f17ced5cc7e27698ee7",
    2: "57bc39c9685b443feac73feeb6174bb0d9e1a797b909e858f160f41b31331d3c",
    8: "3731eda8d5d6dde39f462deb3e047d3d968240dd709d42a10377de9d6d9155ad",
    16: "92bb5181a478d9d5726ce249d5c8e5bb463226504a5c1a309371cd8e37db9b1f",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", sorted(ENGINE_GOLDEN))
def test_encrypt_output_is_pinned(n, threads):
    draws = u64_array(11, np.arange(300 * 300, dtype=np.uint64), 0)
    secrets = [BinaryImage(300, 300, (draws >> np.uint64(k)) & np.uint64(1)) for k in range(n)]
    share_set = encrypt(secrets, 7, threads=threads)
    digest = hashlib.sha256()
    for img in (share_set.unishare, *share_set.shares):
        digest.update(img.bits.tobytes())
    assert digest.hexdigest() == ENGINE_GOLDEN[n]


def test_random_fixture_does_not_reuse_the_encryption_draws():
    # A fixture drawn from pixel p's own stream and cursor would make U equal G.
    for seed in range(21):
        secret = make_fixture("random", 64, 64, seed=seed)
        assert encrypt([secret], seed).unishare != secret


def test_encoding_circuit_is_hadamard_then_cnot_fanout():
    assert encoding_circuit(1) == [hadamard(0), cnot(0, 1)]
    assert encoding_circuit(3) == [hadamard(0), cnot(0, 1), cnot(0, 2), cnot(0, 3)]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    picks=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
)
@example(seed=2**64 - 1, width=300, height=300, picks=[65535, 65536, 89999])
def test_encrypt_matches_per_pixel_reference(seed, width, height, picks):
    """At every arity, the bit-plane engine equals the XOR oracle on whole
    images and the dense encode_pixel reference on sampled pixels."""
    for n in range(1, MAX_ARITY + 1):
        secrets = random_images(n, width, height, seed=(seed + n) % 2**32)
        share_set = encrypt(secrets, seed)
        assert classical_encrypt(secrets, share_set.unishare) == list(share_set.shares)
        for pick in picks:
            p = pick % (width * height)
            g = [int(img.bits[p]) for img in secrets]
            outcome = encode_pixel(g, RngStream(seed, p))
            assert outcome.u == share_set.unishare.bits[p]
            assert outcome.s == tuple(int(s.bits[p]) for s in share_set.shares)


@pytest.mark.parametrize("program", [
    [hadamard(0), hadamard(1)],
    [pauli_x(1), hadamard(0)],
], ids=["second_hadamard", "pauli_x"])
def test_engine_refuses_a_program_it_cannot_run(program):
    secret = make_fixture("random", 4, 4, seed=0)
    u_out, s_out = np.empty(16, dtype=np.uint8), np.empty((1, 16), dtype=np.uint8)
    with pytest.raises(ValueError, match="cannot apply"):
        scheme._encode_blocks(program, [secret], 0, [0], u_out, s_out)


def test_engine_measures_a_program_without_hadamard_deterministically():
    secret = make_fixture("random", 4, 4, seed=0)
    u_out, s_out = np.empty(16, dtype=np.uint8), np.empty((1, 16), dtype=np.uint8)
    scheme._encode_blocks([cnot(0, 1)], [secret], 0, [0], u_out, s_out)
    assert not u_out.any()
    assert np.array_equal(s_out[0], secret.bits)


def test_engine_norm_check_uses_the_branch_amplitudes(monkeypatch):
    monkeypatch.setattr(scheme, "INV_SQRT2", 0.6)
    with pytest.raises(StateError):
        encrypt([make_fixture("random", 4, 4, seed=0)], 0)


def test_encrypt_rejects_empty_and_mismatched_input():
    with pytest.raises(ConfigError):
        encrypt([], 0)
    ragged = [make_fixture("random", 8, 8, seed=0), make_fixture("random", 8, 9, seed=0)]
    with pytest.raises(ShapeMismatchError):
        encrypt(ragged, 0)


def test_scheme_config_arity_bounds():
    with pytest.raises(ConfigError):
        encrypt([], 0)
    with pytest.raises(ConfigError):
        encrypt(random_images(MAX_ARITY + 1, 2, 2, seed=0), 0)


def test_encrypt_reduces_seed_mod_2_64():
    secrets = random_images(2, 16, 16, seed=8)
    base = encrypt(secrets, 12345)
    assert encrypt(secrets, 12345 + 2**64) == base
    assert encrypt(secrets, 12345 - 2**64) == base


def test_share_set_validates_consistency():
    img = make_fixture("random", 4, 4, seed=0)
    with pytest.raises(ShapeMismatchError):
        ShareSet(img, (img, make_fixture("random", 5, 4, seed=0)))
    with pytest.raises(ConfigError):
        ShareSet(img, ())
    with pytest.raises(ConfigError):
        ShareSet(img, (img,) * (MAX_ARITY + 1))


def test_share_set_size_comes_from_the_images():
    img = make_fixture("random", 5, 3, seed=0)
    share_set = ShareSet(img, [img, img])
    assert (share_set.width, share_set.height) == (5, 3)
    assert share_set.shares == (img, img)
    assert [f.name for f in dataclasses.fields(ShareSet)] == ["unishare", "shares"]


# ----------------------------------------------------------- classical oracle

def test_classical_encrypt_identity_and_complement_masks():
    g = random_images(2, 8, 8, seed=77)
    zero = make_fixture("all_zero", 8, 8)
    ones = make_fixture("all_one", 8, 8)
    assert classical_encrypt(g, zero) == g
    assert classical_encrypt(g, ones) == [BinaryImage(8, 8, img.bits ^ 1) for img in g]


def test_classical_encrypt_matches_circuit_encrypt():
    secrets = random_images(2, 32, 32, seed=14)
    share_set = encrypt(secrets, 99)
    assert classical_encrypt(secrets, share_set.unishare) == list(share_set.shares)


# ------------------------------------------------------------------- decode

def test_decode_pixel_truth_table_both_paths():
    # decode_pixel has one path, the receiver CNOT circuit; it must equal XOR.
    for u in (0, 1):
        for s in (0, 1):
            assert decode_pixel(u, s) == u ^ s


def test_decode_pixel_branch_table():
    assert decode_pixel(1, 0) == 1
    assert decode_pixel(0, 0) == 0
    assert decode_pixel(1, 1) == 0


def test_decode_pixel_rejects_non_bits():
    with pytest.raises(ValueError):
        decode_pixel(2, 0)
    with pytest.raises(ValueError):
        decode_pixel(0, -1)


def test_decrypt_with_unishare_itself_gives_zeros():
    share_set = encrypt(random_images(1, 8, 8, seed=5), 6)
    u = share_set.unishare
    assert decrypt(u, u) == make_fixture("all_zero", 8, 8)


def test_decrypt_wrong_unishare_yields_noise():
    secrets = random_images(1, 64, 64, seed=30)
    share_set = encrypt(secrets, 31)
    wrong = make_fixture("random", 64, 64, seed=999)
    garbage = decrypt(wrong, share_set.shares[0])
    mismatch = float(np.mean(garbage.bits != secrets[0].bits))
    assert abs(mismatch - 0.5) <= 0.04


def test_decrypt_shape_mismatch():
    share_set = encrypt(random_images(1, 8, 8, seed=1), 1)
    with pytest.raises(ShapeMismatchError):
        decrypt(make_fixture("random", 9, 8, seed=1), share_set.shares[0])


def test_decrypt_all_preserves_order_and_reduces_to_random_grid():
    secrets = random_images(4, 16, 16, seed=50)
    recovered = decrypt_all(encrypt(secrets, 51))
    assert recovered == secrets

    single = [secrets[0]]
    pair = encrypt(single, 52)
    assert (pair.unishare ^ pair.shares[0]) == secrets[0]
    assert decrypt_all(pair) == single


# -------------------------------------------------------------- statistics

def test_unishare_and_share_uniformity():
    secrets = [
        make_fixture("all_one", 256, 256),   # extreme, non-random content
        make_fixture("text_glyphs", 256, 256),
    ]
    share_set = encrypt(secrets, 60)
    bound = 4.0 * 0.5 / 256.0
    assert abs(share_set.unishare.ones_fraction() - 0.5) <= bound
    for share in share_set.shares:
        assert abs(share.ones_fraction() - 0.5) <= bound


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_round_trip_and_pairwise_xor_property(seed):
    secrets = random_images(2, 12, 12, seed=seed % (2**32))
    share_set = encrypt(secrets, seed)
    assert decrypt_all(share_set) == secrets
    assert (share_set.shares[0] ^ share_set.shares[1]) == (secrets[0] ^ secrets[1])
