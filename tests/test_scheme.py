import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import metrics, rng, scheme
from qvmss.imaging import BinaryImage, ShapeMismatchError, make_fixture, row_bytes
from qvmss.qsim import cnot, hadamard, measure_all, pauli_x
from qvmss.rng import RngStream
from qvmss.scheme import (
    MAX_ARITY,
    ConfigError,
    ShareSet,
    classical_encrypt,
    decode_pixel,
    decoding_circuit,
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
        high = RngStream(master_seed, stream).next_bit() == 1
        if high == want_high:
            return stream
    raise AssertionError("no stream with the wanted first draw")


def random_images(n, width, height, seed):
    return [make_fixture("random", width, height, seed=seed + i) for i in range(n)]


def flat_bits(img):
    """The image's bits unpacked, flat in row-major order."""
    return img.as_grid().reshape(-1)


def stream_of(p, width):
    """The keystream bit of flat pixel p: pixel (x, y) takes bit 8*y*row_bytes + x."""
    y, x = divmod(p, width)
    return 8 * y * ((width + 7) // 8) + x


# -------------------------------------------------------- transmitter state

def test_transmitter_state_two_secret_zeros_is_ghz_form():
    probs = abs(transmitter_state([0, 0])) ** 2
    assert np.flatnonzero(probs).tolist() == [0, 7]
    assert np.allclose(probs[[0, 7]], 0.5, rtol=0, atol=1e-12)


def test_transmitter_state_single_one():
    probs = abs(transmitter_state([1])) ** 2
    assert np.flatnonzero(probs).tolist() == [1, 2]  # |01> and |10>
    assert np.allclose(probs[[1, 2]], 0.5, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transmitter_state_support_is_two_complementary_branches(n):
    full_mask = (1 << (n + 1)) - 1
    for value in range(1 << n):
        g = [(value >> (n - 1 - j)) & 1 for j in range(n)]
        probs = abs(transmitter_state(g)) ** 2
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
    with pytest.raises(ValueError):  # not truncated to [0, 1]
        transmitter_state([0.5, 1])


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
    assert abs(ones / trials - 0.5) <= metrics.uniformity_bound(trials)


@settings(max_examples=80)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**256 - 1),
    stream=st.integers(0, 2**32),
)
def test_encode_pixel_share_is_secret_xor_unishare(bits, seed, stream):
    outcome = encode_pixel(bits, RngStream(seed, stream))
    assert outcome.s == tuple(b ^ outcome.u for b in bits)


# ------------------------------------------------------------------ encrypt

def test_encrypt_all_zero_secret_share_equals_unishare(flat_image):
    g = [flat_image(4, 4, 0)]
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


@pytest.mark.parametrize("bit", [0, 1, 127, 255])
def test_one_key_bit_changes_about_half_of_the_unishare(bit):
    # Key sensitivity: the UniShare under a key one bit away is another uniform draw,
    # so about half of its pixels differ from the UniShare under the first key.
    seed, size = 0x5EED_0F_4B1_F11B, 256
    secret = [make_fixture("text_glyphs", size, size)]
    original = encrypt(secret, seed).unishare
    flipped = encrypt(secret, seed ^ (1 << bit)).unishare
    mismatch = metrics.report(original, flipped).mismatch_fraction
    assert abs(mismatch - 0.5) <= metrics.uniformity_bound(size * size)


def test_encrypt_is_reproducible():
    secrets = random_images(2, 32, 32, seed=88)
    a = encrypt(secrets, 1313)
    b = encrypt(secrets, 1313)
    assert a.unishare == b.unishare
    assert a.shares == b.shares


# SHA-256 over the bits of U, S_1, ..., S_n from encrypt(seed 7) on a 300x300
# image; secret k is made by hashlib in `golden_secrets`.
ENGINE_GOLDEN = {
    1: "33175b9b9de41b82037ed28b9287524ed8fbf912ff5b56600ad4ca10d5c28b1b",
    2: "3f8096a24932a712e890132e72e24526dda3a9d3dbc8c161cbd7bb5a3801d191",
    8: "8c8d094a0bdf38662671240f5485eb7337884fa61b3f979d47cc4667bc115c4e",
    16: "d031b933380e4f9e437d42f51f50f2d563d5ed53b077c89a215addd9c1788233",
}


@pytest.fixture(scope="module")
def golden_secrets():
    """16 secrets of 300x300: secret k is the first 90000 bits of SHAKE128("golden k")."""
    return [BinaryImage(300, 300, np.unpackbits(np.frombuffer(
        hashlib.shake_128(f"golden {k}".encode()).digest(300 * 300 // 8), dtype=np.uint8)))
        for k in range(16)]


@pytest.mark.parametrize("n", sorted(ENGINE_GOLDEN))
def test_encrypt_output_is_pinned(n, golden_secrets):
    secrets = golden_secrets[:n]
    share_set = encrypt(secrets, 7)
    digest = hashlib.sha256()
    for img in (share_set.unishare, *share_set.shares):
        digest.update(flat_bits(img).tobytes())
    assert digest.hexdigest() == ENGINE_GOLDEN[n]


def test_encrypt_images_are_read_only_views_of_one_packed_output():
    secrets = random_images(3, 37, 20, seed=4)
    share_set = encrypt(secrets, 5)
    images = [share_set.unishare, *share_set.shares]
    out = images[0].rows.base
    assert out.shape == (4, 20, 5)
    assert not out.flags.writeable
    for q, img in enumerate(images):
        assert img.rows.base is out
        assert np.shares_memory(img.rows, out[q])
        assert not img.rows.flags.writeable


def test_encrypt_peak_memory_is_the_packed_output_plus_one_chunk():
    n = 16
    # Every gate acts in place on the whole planes of the output, so the
    # only scratch that the image size could grow is the keystream, and it
    # is drawn into plane 0 one chunk at a time: one chunk's digest, freed
    # before the next is hashed, plus two chunks' worth for the interpreter's
    # and numpy's own bookkeeping, which does not grow with the image.
    # Measured beyond the output: 13.5, 11.5 and 11.4 KiB at widths 2048,
    # 2047 and 2040 (255-byte rows, so rows straddle the chunk edges).
    scratch = 3 * rng.CHUNK
    for width in (2048, 2047, 2040):
        secret = make_fixture("random", width, 2048, seed=2)
        output = (n + 1) * secret.rows.nbytes
        tracemalloc.start()
        try:
            encrypt([secret] * n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= output + scratch, width


def test_random_fixture_does_not_reuse_the_encryption_draws():
    # A blank secret's U is the Born keystream itself.  A fixture drawn from
    # the same keystream would equal it; under its own tag, about half differ.
    blank = BinaryImage(64, 64, np.zeros(64 * 64, dtype=np.uint8))
    for seed in (0, 1, 2**64 - 1, 2**256 - 1):
        unishare = encrypt([blank], seed).unishare
        fixture = make_fixture("random", 64, 64, seed=seed)
        assert unishare != fixture
        assert abs((unishare ^ fixture).ones_fraction() - 0.5) < 0.05


def test_encoding_circuit_is_hadamard_then_cnot_fanout():
    assert encoding_circuit(1) == [hadamard(0), cnot(0, 1)]
    assert encoding_circuit(3) == [hadamard(0), cnot(0, 1), cnot(0, 2), cnot(0, 3)]


def test_decoding_circuit_is_one_cnot_from_u_onto_the_share_bit():
    assert decoding_circuit() == [cnot(0, 1)]


@settings(max_examples=10)
@given(
    seed=st.integers(0, 2**256 - 1),
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    picks=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
)
@example(seed=2**64 - 1, width=300, height=300, picks=[64675, 64676, 89999])
@example(seed=2**256 - 1, width=70001, height=3, picks=[65535, 65536, 140001])
def test_encrypt_matches_per_pixel_reference(seed, width, height, picks):
    """At every arity, the bit-plane engine equals the XOR oracle on whole
    images and the dense encode_pixel reference on sampled pixels."""
    for n in range(1, MAX_ARITY + 1):
        secrets = random_images(n, width, height, seed=(seed + n) % 2**32)
        share_set = encrypt(secrets, seed)
        assert classical_encrypt(secrets, share_set.unishare) == list(share_set.shares)
        g_bits = [flat_bits(img) for img in secrets]
        u_bits = flat_bits(share_set.unishare)
        s_bits = [flat_bits(s) for s in share_set.shares]
        for pick in picks:
            p = pick % (width * height)
            outcome = encode_pixel([int(g[p]) for g in g_bits],
                                   RngStream(seed, stream_of(p, width)))
            assert outcome.u == u_bits[p]
            assert outcome.s == tuple(int(s[p]) for s in s_bits)


@pytest.mark.parametrize("program", [
    [hadamard(0), hadamard(1)],
    [pauli_x(1), hadamard(0)],
    [hadamard(1)],
    [hadamard(0), cnot(1, 0)],
], ids=["second_hadamard", "pauli_x", "hadamard_off_qubit_0", "gate_onto_measured_qubit_0"])
def test_engine_refuses_a_program_it_cannot_run(program):
    secret = make_fixture("random", 4, 4, seed=0)
    out = np.empty((2, 4, 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="cannot apply"):
        scheme._encode_planes(program, [secret], 0, out)


@st.composite
def engine_programs(draw):
    """(n, program): up to 5 CNOTs on n + 1 qubits, then optionally the H on
    qubit 0 and up to 5 CNOTs that leave qubit 0 alone."""
    n = draw(st.integers(1, 4))

    def cnots(first_target):
        pair = st.tuples(st.integers(0, n), st.integers(first_target, n)).filter(
            lambda ct: ct[0] != ct[1])
        return draw(st.lists(pair.map(lambda ct: cnot(*ct)), max_size=5))

    program = cnots(0)
    if draw(st.booleans()):
        program += [hadamard(0), *cnots(1)]
    return n, program


@settings(max_examples=60)
@given(
    case=engine_programs(),
    width=st.integers(1, 11),
    height=st.integers(1, 4),
    seed=st.integers(0, 2**256 - 1),
)
def test_engine_equals_the_dense_reference_on_every_program_it_accepts(case, width, height, seed):
    n, program = case
    secrets = random_images(n, width, height, seed=seed % 2**32)
    out = np.empty((n + 1, height, (width + 7) // 8), dtype=np.uint8)
    scheme._encode_planes(program, secrets, seed, out)
    got = np.unpackbits(out, axis=2)[:, :, :width].reshape(n + 1, -1)
    g_bits = [flat_bits(img) for img in secrets]
    for p in range(width * height):
        g = tuple(int(bits[p]) for bits in g_bits)
        want = measure_all(scheme._run_dense((0, *g), program),
                           RngStream(seed, stream_of(p, width)))
        assert "".join(str(b) for b in got[:, p]) == want, (p, program)


def test_engine_measures_a_program_without_hadamard_deterministically():
    secret = make_fixture("random", 4, 4, seed=0)
    out = np.empty((2, 4, 1), dtype=np.uint8)
    scheme._encode_planes([cnot(0, 1)], [secret], 0, out)
    assert not out[0].any()
    assert np.array_equal(out[1], secret.rows)


def counted_chunks(monkeypatch):
    """The `(index, length)` of every keystream chunk hashed from now on."""
    calls, chunk = [], rng._chunk

    def counted(prefix, index, length=rng.CHUNK):
        calls.append((index, length))
        return chunk(prefix, index, length)

    monkeypatch.setattr(rng, "_chunk", counted)
    return calls


def test_encrypt_draws_once_per_pixel(monkeypatch):
    # Each pixel takes exactly one keystream bit, its own: every byte of the
    # image's 300 rows of 38 bytes is hashed once, and no byte past them.
    secrets = random_images(2, 300, 300, seed=6)
    calls = counted_chunks(monkeypatch)
    encrypt(secrets, 3)
    taken = np.zeros(300 * 38, dtype=np.int64)
    for index, length in calls:
        start = index * rng.CHUNK
        assert 0 <= start < start + length <= taken.size
        taken[start:start + length] += 1
    assert (taken == 1).all()


def chunk_indices(width, height):
    """The index of every keystream chunk that an image's packed rows overlap."""
    return list(range(-(-height * row_bytes(width) // rng.CHUNK)))


@pytest.mark.parametrize("width", [2040, 2047, 2048])
def test_encrypt_hashes_each_keystream_chunk_once(width, monkeypatch):
    # At width 2040 a row is 255 bytes, so most chunk edges fall inside a row.
    secrets = random_images(1, width, 2048, seed=1)
    calls = counted_chunks(monkeypatch)
    encrypt(secrets, 3)
    assert [index for index, _ in calls] == chunk_indices(width, 2048)


@pytest.mark.parametrize("width", [2040, 2047, 2048])
def test_random_fixture_hashes_each_keystream_chunk_once(width, monkeypatch):
    calls = counted_chunks(monkeypatch)
    make_fixture("random", width, 2048, seed=1)
    assert [index for index, _ in calls] == chunk_indices(width, 2048)


def test_engine_copies_a_qubit_no_gate_writes():
    secrets = random_images(2, 4, 4, seed=0)
    out = np.empty((3, 4, 1), dtype=np.uint8)
    scheme._encode_planes([hadamard(0), cnot(0, 1)], secrets, 0, out)
    assert np.array_equal(out[1], out[0] ^ secrets[0].rows)
    assert np.array_equal(out[2], secrets[1].rows)


@pytest.mark.parametrize("program, n", [
    (encoding_circuit(1), 1),
    (encoding_circuit(2), 2),
    (encoding_circuit(16), 16),
    ([cnot(0, 1)], 1),
], ids=["n1", "n2", "n16", "no_hadamard"])
def test_engine_output_does_not_depend_on_what_out_held(program, n):
    # Width 37 leaves 3 padding bits in each row's last byte.
    secrets = random_images(n, 37, 9, seed=n)
    zeros = np.zeros((n + 1, 9, 5), dtype=np.uint8)
    ones = np.full_like(zeros, 0xFF)
    for out in (zeros, ones):
        scheme._encode_planes(program, secrets, 6, out)
    assert np.array_equal(zeros, ones)


def one_block_engine_peak(n):
    """tracemalloc peak of `_encode_planes` over a 256x256 image at arity n."""
    secrets = random_images(n, 256, 256, seed=5)
    out = np.empty((n + 1, 256, 32), dtype=np.uint8)
    tracemalloc.start()
    try:
        scheme._encode_planes(encoding_circuit(n), secrets, 3, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_scratch_does_not_grow_with_arity():
    # The qubit planes are the caller's output; only a keystream chunk is scratch.
    assert one_block_engine_peak(16) - one_block_engine_peak(1) <= 16 * 1024


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


def test_encrypt_reduces_seed_mod_2_256():
    secrets = random_images(2, 16, 16, seed=8)
    base = encrypt(secrets, 12345)
    assert encrypt(secrets, 12345 + 2**256) == base
    assert encrypt(secrets, 12345 - 2**256) == base
    assert encrypt(secrets, 12345 + 2**64) != base  # the key is wider than 64 bits


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

def test_classical_encrypt_identity_and_complement_masks(flat_image):
    g = random_images(2, 8, 8, seed=77)
    zero = flat_image(8, 8, 0)
    ones = flat_image(8, 8, 1)
    assert classical_encrypt(g, zero) == g
    assert classical_encrypt(g, ones) == [BinaryImage(8, 8, flat_bits(img) ^ 1) for img in g]


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


def test_decode_pixel_rejects_non_bits():
    with pytest.raises(ValueError):
        decode_pixel(2, 0)
    with pytest.raises(ValueError):
        decode_pixel(0, -1)


def test_decrypt_with_unishare_itself_gives_zeros(flat_image):
    share_set = encrypt(random_images(1, 8, 8, seed=5), 6)
    u = share_set.unishare
    assert decrypt(u, u) == flat_image(8, 8, 0)


def test_decrypt_wrong_unishare_yields_noise():
    secrets = random_images(1, 64, 64, seed=30)
    share_set = encrypt(secrets, 31)
    wrong = make_fixture("random", 64, 64, seed=999)
    garbage = decrypt(wrong, share_set.shares[0])
    mismatch = float(np.mean(garbage.as_grid() != secrets[0].as_grid()))
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

def test_unishare_and_share_uniformity(flat_image):
    secrets = [
        flat_image(256, 256, 1),   # extreme, non-random content
        make_fixture("text_glyphs", 256, 256),
    ]
    share_set = encrypt(secrets, 60)
    bound = metrics.uniformity_bound(256 * 256)
    assert abs(share_set.unishare.ones_fraction() - 0.5) <= bound
    for share in share_set.shares:
        assert abs(share.ones_fraction() - 0.5) <= bound


@settings(max_examples=25)
@given(seed=st.integers(0, 2**256 - 1))
def test_round_trip_and_pairwise_xor_property(seed):
    secrets = random_images(2, 12, 12, seed=seed % (2**32))
    share_set = encrypt(secrets, seed)
    assert decrypt_all(share_set) == secrets
    assert (share_set.shares[0] ^ share_set.shares[1]) == (secrets[0] ^ secrets[1])
