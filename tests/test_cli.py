import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qvmss
from qvmss import cli, imaging, metrics, rng, scheme
from qvmss.cli import main
from qvmss.imaging import PBM_FORMATS, BinaryImage, make_fixture, read_pbm, write_pbm


@pytest.fixture
def secret_files(tmp_path):
    paths = []
    for i, kind in enumerate(["text_glyphs", "random"]):
        img = make_fixture(kind, 32, 32, seed=i)
        path = tmp_path / f"g{i + 1}.pbm"
        path.write_bytes(write_pbm(img))
        paths.append(path)
    return paths


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ------------------------------------------------------------------ encrypt

def test_encrypt_writes_shares_and_manifest(tmp_path, secret_files, capsys):
    out = tmp_path / "out"
    rc = main(["encrypt", "--seed", "42", *map(str, secret_files), "-o", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["S1.pbm", "S2.pbm", "U.pbm", "manifest.json"]
    assert "seed: 42" in capsys.readouterr().out

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["arity"] == 2
    assert manifest["width"] == 32 and manifest["height"] == 32
    assert set(manifest["files"]) == {"U.pbm", "S1.pbm", "S2.pbm"}
    assert all(len(d) == 64 for d in manifest["files"].values())


def test_encrypt_prints_its_files_in_write_order(tmp_path, secret_files, capsys):
    # U first, then the shares in secret order, then the manifest: the order of a run.
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "1", *map(str, secret_files), *map(str, secret_files[:1]),
                 "-o", str(out)]) == 0
    printed = capsys.readouterr().out.replace(str(out), "OUT")
    assert printed == ("seed: 1\nwrote OUT/U.pbm\nwrote OUT/S1.pbm\nwrote OUT/S2.pbm\n"
                       "wrote OUT/S3.pbm\nwrote OUT/manifest.json\n")


def test_printed_seed_rebuilds_the_unishare(tmp_path, secret_files):
    # The seed is key material: with it, anyone can redraw U and decrypt every share.
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "1234", *map(str, secret_files), "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    width, height = manifest["width"], manifest["height"]
    # Row y of U is keystream bytes y*row_bytes .. (y + 1)*row_bytes - 1 of
    # SHAKE128(tag || 256-bit key || chunk counter); rows of 32 pixels have
    # no padding bits to clear.
    key = (manifest["seed"] % 2**256).to_bytes(32, "little")
    chunk = hashlib.shake_128(b"qvmss.born.bit\0\0" + key + bytes(8)).digest(8192)
    rows = np.frombuffer(chunk, dtype=np.uint8)[: height * width // 8].reshape(height, -1)
    rebuilt = BinaryImage.from_rows(width, height, rows)
    assert rebuilt == read_pbm((out / "U.pbm").read_bytes())
    recovered = read_pbm((out / "S1.pbm").read_bytes()) ^ rebuilt
    assert recovered == read_pbm(secret_files[0].read_bytes())


def test_encrypt_rerun_is_byte_identical(tmp_path, secret_files):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["encrypt", "--seed", "7", *map(str, secret_files), "-o", str(out_a)]) == 0
    assert main(["encrypt", "--seed", "7", *map(str, secret_files), "-o", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_encrypt_leaves_unrelated_tmp_files_alone(tmp_path, secret_files):
    out = tmp_path / "out"
    out.mkdir()
    (out / "U.pbm.tmp").write_bytes(b"user data")
    assert main(["encrypt", "--seed", "5", *map(str, secret_files), "-o", str(out)]) == 0
    assert (out / "U.pbm.tmp").read_bytes() == b"user data"
    assert sorted(p.name for p in out.iterdir()) == [
        "S1.pbm", "S2.pbm", "U.pbm", "U.pbm.tmp", "manifest.json",
    ]


def test_encrypt_failed_write_keeps_the_previous_run(tmp_path, secret_files, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "1", *map(str, secret_files), "-o", str(out)]) == 0
    before = read_tree(out)
    assert all(stat.S_IMODE((out / name).stat().st_mode) == 0o600 for name in before)

    real_open, staged = os.open, []

    def third_write_fails(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if os.fspath(path).endswith(".tmp") and flags & os.O_CREAT:
            staged.append(path)
            if len(staged) == 3:
                os.close(fd)
                fd = real_open(path, os.O_RDONLY)  # so writing the payload raises OSError
        return fd

    monkeypatch.setattr(os, "open", third_write_fails)
    assert main(["encrypt", "--seed", "2", *map(str, secret_files), "-o", str(out)]) == 2
    assert len(staged) == 3
    assert "error:" in capsys.readouterr().err
    assert not list(out.glob(".*.tmp"))
    assert read_tree(out) == before


@pytest.mark.parametrize("out_dir", ["", "./out", "out/", "out//", "a/../out"])
def test_encrypt_prints_each_path_as_pathlib_joins_it(out_dir, tmp_path, secret_files,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--seed", "3", *map(str, secret_files), "-o", out_dir]) == 0
    names = ["U.pbm", "S1.pbm", "S2.pbm", "manifest.json"]
    assert capsys.readouterr().out.splitlines() == [
        "seed: 3", *(f"wrote {Path(out_dir) / name}" for name in names)]
    landed = tmp_path / "out" if out_dir else tmp_path
    manifest = json.loads((landed / "manifest.json").read_text())
    for name in names[:-1]:
        assert hashlib.sha256((landed / name).read_bytes()).hexdigest() == manifest["files"][name]
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("planted", ["U.pbm", "S2.pbm", "manifest.json"])
def test_staging_never_follows_or_overwrites_an_existing_path(planted, tmp_path, secret_files,
                                                               monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "1", *map(str, secret_files), "-o", str(out)]) == 0
    before = read_tree(out)
    victim = tmp_path / "victim"
    victim.write_bytes(b"not a share")
    monkeypatch.setattr(cli.os, "urandom", lambda size: bytes(size))  # so the token is known
    link = out / f".{planted}.{'00' * 8}.tmp"
    link.symlink_to(victim)
    capsys.readouterr()
    assert main(["encrypt", "--seed", "2", *map(str, secret_files), "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert victim.read_bytes() == b"not a share"
    assert [p.name for p in out.glob(".*.tmp")] == [link.name]  # none of this run's is left
    link.unlink()
    assert read_tree(out) == before


def test_encrypt_interrupted_write_keeps_the_previous_run(tmp_path, secret_files, monkeypatch):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "1", *map(str, secret_files), "-o", str(out)]) == 0
    before = read_tree(out)

    real_write_pbm, calls = cli.write_pbm, []

    def second_write_interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_write_pbm(*args, **kwargs)

    monkeypatch.setattr(cli, "write_pbm", second_write_interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["encrypt", "--seed", "2", *map(str, secret_files), "-o", str(out)])
    assert len(calls) == 2
    assert read_tree(out) == before  # so no staged .tmp file is left either


def test_encrypt_holds_one_serialized_file_at_a_time(tmp_path):
    height, n = 2048, 16
    for width in (2048, 2040):
        path = tmp_path / f"g{width}.pbm"
        path.write_bytes(write_pbm(make_fixture("text_glyphs", width, height)))
        image = height * imaging.row_bytes(width)
        # The packed input and output, the engine's keystream scratch (one
        # chunk, and one more for its bookkeeping), one serialized file and
        # 512 KiB of bookkeeping: about 236 KiB measured on a first run, 30
        # KiB after.  Serializing every file before writing any would add n
        # more images.
        bound = (2 * n + 1) * image + 2 * rng.CHUNK + image + (1 << 19)
        tracemalloc.start()
        try:
            assert main(["encrypt", "--seed", "3", *[str(path)] * n,
                         "-o", str(tmp_path / f"out{width}")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, width


def test_encrypt_single_secret_gives_random_grid_pair(tmp_path, secret_files):
    out = tmp_path / "out"
    rc = main(["encrypt", "--seed", "1", str(secret_files[0]), "-o", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["S1.pbm", "U.pbm", "manifest.json"]


def test_encrypt_too_many_secrets_exits_2(tmp_path, secret_files, capsys):
    rc = main(["encrypt", *[str(secret_files[0])] * 17, "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need 1..16 secret images, got 17")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_encrypt_checks_the_arity_before_reading_any_secret(tmp_path, capsys):
    missing = [str(tmp_path / f"nope{i}.pbm") for i in range(1, 18)]
    assert main(["encrypt", *missing, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need 1..16 secret images, got 17")
    assert not (tmp_path / "out").exists()


def test_encrypt_dimension_mismatch_names_file(tmp_path, capsys):
    small = tmp_path / "small.pbm"
    big = tmp_path / "big.pbm"
    small.write_bytes(write_pbm(make_fixture("random", 8, 8, seed=0)))
    big.write_bytes(write_pbm(make_fixture("random", 16, 8, seed=0)))
    rc = main(["encrypt", str(small), str(big), "-o", str(tmp_path / "out")])
    assert rc == 3
    assert "big.pbm" in capsys.readouterr().err


def test_encrypt_missing_file_exits_2(tmp_path, capsys):
    rc = main(["encrypt", str(tmp_path / "nope.pbm"), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "nope.pbm" in capsys.readouterr().err


def test_encrypt_unparseable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P6\n2 2\n255\nxxxxxxxxxxxx")
    rc = main(["encrypt", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "bad.pbm" in capsys.readouterr().err


def test_encrypt_p1_format_flag(tmp_path, secret_files):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "5", "--format", "p1",
                 str(secret_files[0]), "-o", str(out)]) == 0
    assert (out / "U.pbm").read_bytes().startswith(b"P1\n")


def test_encrypt_env_seed_fallback(tmp_path, secret_files, monkeypatch, capsys):
    monkeypatch.setenv("QVMSS_SEED", "4242")
    out = tmp_path / "out"
    assert main(["encrypt", str(secret_files[0]), "-o", str(out)]) == 0
    assert "seed: 4242" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["seed"] == 4242


def test_encrypt_bad_env_seed(tmp_path, secret_files, monkeypatch, capsys):
    # Most of a key with one stray digit: the error must not carry it into a log.
    value = "0x1234deadbeefcafe1234deadbeefcafeg"
    monkeypatch.setenv("QVMSS_SEED", value)
    rc = main(["encrypt", str(secret_files[0]), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: QVMSS_SEED is not an integer\n"
    assert value[2:-1] not in err


@pytest.mark.parametrize("command", ["encrypt", "selftest"])
@pytest.mark.parametrize("value", ["08", "zz"])
def test_bad_seed_exits_2_naming_the_flag(tmp_path, secret_files, capsys, command, value):
    inputs = [str(secret_files[0]), "-o", str(tmp_path / "out")] if command == "encrypt" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "<lambda>" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_only_manifest_files_are_hashed(tmp_path, secret_files, monkeypatch):
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or sha256(*a))
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "4", *map(str, secret_files), "-o", str(out)]) == 0
    assert len(calls) == len(secret_files) + 1  # U.pbm and S1..Sn.pbm
    calls.clear()
    assert main(["decrypt", "-u", str(out / "U.pbm"), str(out / "S1.pbm"), str(out / "S2.pbm"),
                 "-o", str(tmp_path / "rec")]) == 0
    assert calls == []


def test_encrypt_auto_seed_is_echoed(tmp_path, secret_files, capsys):
    out = tmp_path / "out"
    assert main(["encrypt", str(secret_files[0]), "-o", str(out)]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("seed: ")][0]
    echoed = int(line.split(": ")[1])
    assert json.loads((out / "manifest.json").read_text())["seed"] == echoed
    assert 0 <= echoed < 2**256


@pytest.mark.parametrize("value, key", [("-1", 2**256 - 1), (str(2**256 + 5), 5),
                                        (hex(2**255), 2**255)])
def test_seed_flag_reduces_mod_2_256(tmp_path, secret_files, capsys, value, key):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", value, str(secret_files[0]), "-o", str(out)]) == 0
    assert f"seed: {key}\n" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["seed"] == key


# ------------------------------------------------------------------ decrypt

def test_decrypt_recovers_secrets(tmp_path, secret_files):
    out = tmp_path / "out"
    rec = tmp_path / "rec"
    assert main(["encrypt", "--seed", "9", *map(str, secret_files), "-o", str(out)]) == 0
    rc = main(["decrypt", "-u", str(out / "U.pbm"),
               str(out / "S1.pbm"), str(out / "S2.pbm"), "-o", str(rec)])
    assert rc == 0
    for i, source in enumerate(secret_files, start=1):
        recovered = read_pbm((rec / f"G{i}_rec.pbm").read_bytes())
        assert recovered == read_pbm(source.read_bytes())


def test_decrypt_single_share_recovers_single_secret(tmp_path, secret_files):
    out = tmp_path / "out"
    rec = tmp_path / "rec"
    assert main(["encrypt", "--seed", "9", *map(str, secret_files), "-o", str(out)]) == 0
    rc = main(["decrypt", "-u", str(out / "U.pbm"), str(out / "S2.pbm"), "-o", str(rec)])
    assert rc == 0
    assert [p.name for p in rec.iterdir()] == ["G1_rec.pbm"]
    assert read_pbm((rec / "G1_rec.pbm").read_bytes()) == read_pbm(secret_files[1].read_bytes())


def test_decrypt_holds_one_recovered_image_at_a_time(tmp_path):
    side, n = 1024, 16
    image = side * side // 8
    unishare, share = tmp_path / "U.pbm", tmp_path / "S.pbm"
    unishare.write_bytes(write_pbm(make_fixture("random", side, side, seed=1)))
    share.write_bytes(write_pbm(make_fixture("random", side, side, seed=2)))
    argv = ["decrypt", "-u", str(unishare), *[str(share)] * n, "-o", str(tmp_path / "rec")]
    assert main(argv) == 0  # the first run fills argparse's and re's caches
    # U, a share being read (its file's bytes and its image), the previous share
    # and recovered image, the serialized file and 96 KiB of bookkeeping: no
    # term grows with n.  Reading every share before recovering any exceeds it.
    bound = 6 * image + (96 << 10)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_decrypt_has_no_seed_flag(tmp_path, secret_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decrypt", "--seed", "1", "-u", str(secret_files[0]), str(secret_files[1]),
              "-o", str(tmp_path / "rec")])
    assert exc.value.code == 2
    assert not (tmp_path / "rec").exists()


def test_decrypt_wrong_size_unishare_exits_3(tmp_path, secret_files, capsys):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "9", *map(str, secret_files), "-o", str(out)]) == 0
    wrong = tmp_path / "wrongU.pbm"
    wrong.write_bytes(write_pbm(make_fixture("random", 16, 16, seed=0)))
    rc = main(["decrypt", "-u", str(wrong), str(out / "S1.pbm"), "-o", str(tmp_path / "rec")])
    assert rc == 3
    assert "S1.pbm" in capsys.readouterr().err


def test_decrypt_wrong_size_later_share_keeps_the_previous_run(tmp_path, secret_files, capsys):
    out, rec = tmp_path / "out", tmp_path / "rec"
    assert main(["encrypt", "--seed", "9", *map(str, secret_files), "-o", str(out)]) == 0
    assert main(["decrypt", "-u", str(out / "U.pbm"), str(out / "S2.pbm"), "-o", str(rec)]) == 0
    before = read_tree(rec)
    wrong = tmp_path / "bad" / "S2.pbm"
    wrong.parent.mkdir()
    wrong.write_bytes(write_pbm(make_fixture("random", 16, 16, seed=0)))
    # S1 is recovered and staged before S2 is read; S2's size check removes it.
    rc = main(["decrypt", "-u", str(out / "U.pbm"), str(out / "S1.pbm"), str(wrong),
               "-o", str(rec)])
    assert rc == 3
    assert str(wrong) in capsys.readouterr().err
    assert read_tree(rec) == before  # so no .tmp file is left either


# ------------------------------------------------------------------ metrics

def test_metrics_two_images(tmp_path, secret_files, capsys):
    rc = main(["metrics", str(secret_files[0]), str(secret_files[0])])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psnr_db"] == "inf"
    assert payload["ssim"] == 1.0
    assert payload["mismatch_fraction"] == 0.0


def test_metrics_one_pixel_images(tmp_path, capsys):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    a.write_bytes(b"P1\n1 1\n1\n")
    b.write_bytes(b"P1\n1 1\n0\n")
    assert main(["metrics", str(a), str(b)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["mismatch_fraction"] == 1.0 and payload["correlation"] is None
    assert "Traceback" not in captured.err


def test_metrics_requires_two_images(capsys, secret_files):
    assert main(["metrics", str(secret_files[0])]) == 2


def test_metrics_shape_mismatch_exits_3(tmp_path, capsys):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    a.write_bytes(write_pbm(make_fixture("random", 8, 8, seed=0)))
    b.write_bytes(write_pbm(make_fixture("random", 8, 9, seed=0)))
    assert main(["metrics", str(a), str(b)]) == 3


def test_metrics_pairs_grid(tmp_path, secret_files, capsys):
    out = tmp_path / "out"
    assert main(["encrypt", "--seed", "3", *map(str, secret_files), "-o", str(out)]) == 0
    capsys.readouterr()
    rc = main([
        "metrics", "--pairs",
        "--secrets", *map(str, secret_files),
        "--shares", str(out / "S1.pbm"), str(out / "S2.pbm"),
        "--unishare", str(out / "U.pbm"),
    ])
    assert rc == 0
    entries = json.loads(capsys.readouterr().out)
    # 2 secrets x 2 shares + 2 secrets x U + 2 shares x U
    assert len(entries) == 8
    assert all({"a", "b", "psnr_db", "ssim", "correlation"} <= set(e) for e in entries)


def pairs_argv(tmp_path, arity, size):
    """Encrypt `arity` secrets of size x size in tmp_path, the working directory,
    and return the `metrics --pairs` argv over them, with relative file names."""
    secrets = [f"G{i}.pbm" for i in range(1, arity + 1)]
    for i, name in enumerate(secrets):
        kind = ("random", "text_glyphs")[i % 2]
        (tmp_path / name).write_bytes(write_pbm(make_fixture(kind, size, size - 8, seed=3 + i)))
    assert main(["encrypt", "--seed", "5", *secrets, "-o", "."]) == 0
    shares = [f"S{i}.pbm" for i in range(1, arity + 1)]
    return ["metrics", "--pairs", "--secrets", *secrets, "--shares", *shares, "--unishare", "U.pbm"]


@pytest.mark.parametrize("odd", ["S2.pbm", "G2.pbm", "U.pbm"])
def test_metrics_pairs_with_an_image_of_another_size_exits_3(tmp_path, monkeypatch, capsys, odd):
    monkeypatch.chdir(tmp_path)
    argv = pairs_argv(tmp_path, 2, 24)
    (tmp_path / odd).write_bytes(write_pbm(make_fixture("random", 16, 16, seed=0)))
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {odd}: dimensions 16x16 do not match G1.pbm (24x16)\n"
    assert captured.out == ""


@pytest.mark.parametrize("secrets, shares", [(2, 3), (3, 1)])
def test_metrics_pairs_with_unequal_secret_and_share_counts_exits_2(monkeypatch, capsys,
                                                                     secrets, shares):
    # More shares would score the last as the UniShare; fewer would index past the grid.
    monkeypatch.setattr(cli, "_load_image", lambda path: pytest.fail(f"read {path}"))
    argv = ["metrics", "--pairs", "--secrets", *[f"G{i}.pbm" for i in range(secrets)],
            "--shares", *[f"S{i}.pbm" for i in range(shares)], "--unishare", "U.pbm"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --pairs needs one share per secret, got {secrets} "
                            f"secrets and {shares} shares\n")
    assert captured.out == ""


def test_metrics_pairs_output_is_pinned(tmp_path, monkeypatch, capsys):
    # The whole stdout, pinned: how the counts are taken must not move a byte of it.
    monkeypatch.chdir(tmp_path)
    argv = pairs_argv(tmp_path, 2, 37)
    capsys.readouterr()
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "975a8fc3fb85ad42681db075509236ebf432d8ed427986b4476c968f7ce89643"


# Strings that hold what JSON escapes, and the pair grid's own separators.
json_text = st.text() | st.text(st.sampled_from('ab"\\\n\t,: {}[]é€\x00\U0001f600'))


@st.composite
def scored_grids(draw):
    """Image names, and `(i, j, report)` records over images of one size, each
    image with one ones count: a pair of an image with itself is identical
    (PSNR inf), and an image of no or all ones is constant (no correlation)."""
    width, height = draw(st.integers(1, 4096)), draw(st.integers(1, 4096))
    n = width * height
    ones = st.sampled_from([0, n]) | st.integers(0, n)
    images = draw(st.lists(st.tuples(json_text, ones), min_size=1, max_size=5))
    index = st.integers(0, len(images) - 1)
    scored = []
    for i, j in draw(st.lists(st.tuples(index, index), max_size=6)):
        n_a, n_b = images[i][1], images[j][1]
        n_11 = n_a if i == j else draw(st.integers(max(0, n_a + n_b - n), min(n_a, n_b)))
        scored.append((i, j, metrics.from_counts(width, height, n_a, n_b, n_11)))
    return [name for name, _ in images], scored


@settings(max_examples=300)
@given(scored_grids())
@example((["G1.pbm"], []))
@example((['G1, "x"\n\\é', "U.pbm", "C.pbm"], [(0, 1, metrics.from_counts(3, 1, 1, 2, 1)),
                                               (1, 1, metrics.from_counts(3, 1, 2, 2, 2)),
                                               (2, 0, metrics.from_counts(3, 1, 3, 1, 1))]))
def test_pairs_json_is_json_dumps_indent_2(grid):
    names, scored = grid
    records = [{"a": names[i], "b": names[j], **r.to_dict()} for i, j, r in scored]
    assert cli._pairs_json(names, scored) == json.dumps(records, indent=2)


@pytest.mark.parametrize("arity", [2, 8])
def test_metrics_pairs_popcounts_each_image_once(tmp_path, monkeypatch, capsys, arity):
    # 2n+1 images, each counted once, and one joint count per pair: n*n + 2n pairs.
    monkeypatch.chdir(tmp_path)
    argv = pairs_argv(tmp_path, arity, 24)
    capsys.readouterr()
    calls = []
    count_ones = imaging.count_ones
    counted = lambda packed: calls.append(1) or count_ones(packed)
    monkeypatch.setattr(imaging, "count_ones", counted)
    monkeypatch.setattr(metrics, "count_ones", counted)
    assert main(argv) == 0
    pairs = len(json.loads(capsys.readouterr().out))
    assert pairs == arity * arity + 2 * arity
    assert len(calls) == (2 * arity + 1) + pairs


def test_metrics_pairs_needs_inputs(secret_files, capsys):
    assert main(["metrics", "--pairs"]) == 2
    g1, g2 = map(str, secret_files)
    assert main(["metrics", "--pairs", "--secrets", g1, "--shares", g2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pairs needs --secrets, --shares and --unishare" in captured.err


@pytest.mark.parametrize("mode", ["pairs", "unishare"])
def test_metrics_rejects_mixed_modes(secret_files, capsys, mode):
    g1, g2 = map(str, secret_files)
    extra = ["--pairs", "--secrets", g1, "--shares", g2] if mode == "pairs" else ["--unishare", g2]
    assert main(["metrics", g1, g2, *extra]) == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------- demo

def test_demo_round_trip_and_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    rc = main(["demo", "--seed", "7", "-o", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([
        "G1.pbm", "G2.pbm", "U.pbm", "S1.pbm", "S2.pbm",
        "G1_rec.pbm", "G2_rec.pbm", "metrics_pairs.json", "manifest.json",
    ])
    assert read_pbm((out / "G1_rec.pbm").read_bytes()) == read_pbm((out / "G1.pbm").read_bytes())

    entries = json.loads((out / "metrics_pairs.json").read_text())
    by_pair = {(e["a"], e["b"]): e for e in entries}
    assert by_pair[("G1.pbm", "G1_rec.pbm")]["mismatch_fraction"] == 0.0
    assert by_pair[("G2.pbm", "G2_rec.pbm")]["mismatch_fraction"] == 0.0


def test_demo_deterministic_across_runs_and_threads(tmp_path):
    trees = []
    for name in ["a", "b"]:
        assert main(["demo", "--seed", "7", "-o", str(tmp_path / name)]) == 0
        trees.append(read_tree(tmp_path / name))
    assert trees[0] == trees[1]


# The whole stdout of `demo --seed 7`, its output directory written OUT: the
# files in write order, then each graded pair's row in the order it is scored.
DEMO_STDOUT = """\
seed: 7
artifacts in OUT: G1.pbm G2.pbm U.pbm S1.pbm S2.pbm G1_rec.pbm G2_rec.pbm metrics_pairs.json manifest.json
pair                      psnr_db     ssim     corr mismatch
------------------------------------------------------------
G1 vs G1_rec                  inf   1.0000   1.0000   0.0000
G2 vs G2_rec                  inf   1.0000   1.0000   0.0000
G1 vs S1                   3.0048   0.0001  -0.0018   0.5006
G1 vs S2                   3.0058   0.0001  -0.0018   0.5005
G2 vs S1                   3.0058   0.0008  -0.0010   0.5005
G2 vs S2                   3.0048   0.0005  -0.0013   0.5006
G1 vs U                    3.0167   0.0036   0.0020   0.4993
G2 vs U                    3.0201   0.0041   0.0023   0.4989
S1 vs U                    4.6499   0.3157   0.3145   0.3428
S2 vs U                    3.0103   0.0018   0.0000   0.5000
"""


def test_demo_stdout_is_pinned(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "7", "-o", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "OUT") == DEMO_STDOUT


# (format, manifest.json digest, edge length) of `demo --seed 7`, which always
# writes its 512x512 fixtures as P4.  The id leaves the digest out, so a
# re-pin keeps the test's name.
DEMO_GOLDEN = [
    pytest.param("p4", "9ff9dce468a62f16f2046b71f7cd8e21ce50028ad17fb27f29ba43538e565914", "512",
                 id="p4-512"),
]


@pytest.mark.parametrize("fmt, digest, size", DEMO_GOLDEN)
def test_demo_manifest_golden(tmp_path, fmt, digest, size):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "7", "-o", str(out)]) == 0
    assert (out / "U.pbm").read_bytes().startswith(f"{fmt.upper()}\n{size} {size}\n".encode())
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ["encrypt"])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_threads_below_one_exits_2(tmp_path, secret_files, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, secret_files), "--threads", value, "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threads" in err and "positive_int" not in err and "Traceback" not in err
    if value == "x":
        assert "not an integer: 'x'" in err
    assert not (tmp_path / "out").exists()


def test_encrypt_starts_no_thread_whatever_threads_says(tmp_path, monkeypatch):
    # Whatever --threads asks for, the engine runs its whole planes on the calling thread.
    big = tmp_path / "big.pbm"
    big.write_bytes(write_pbm(make_fixture("random", 512, 512, seed=0)))
    assert main(["encrypt", "--seed", "1", str(big), "-o", str(tmp_path / "plain")]) == 0

    def refuse(thread):
        raise AssertionError(f"encrypt started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["encrypt", "--seed", "1", str(big), "--threads", "64",
                 "-o", str(tmp_path / "asked")]) == 0
    assert ((tmp_path / "asked" / "manifest.json").read_bytes()
            == (tmp_path / "plain" / "manifest.json").read_bytes())


# ------------------------------------------------------------------ surface

# Every optional flag of each command, with the callers outside tests/ that
# pass it: the README's Command line block, CI, or bench/run.py's argv lists.
CLI_FLAGS = {
    "encrypt": [
        ("--seed",),  # README, bench/run.py
        ("--threads",),  # bench/run.py
        ("-o", "--out-dir"),  # README, bench/run.py
        ("--format",),  # bench/run.py
    ],
    "decrypt": [
        ("-u", "--unishare"),  # README, bench/run.py
        ("-o", "--out-dir"),  # README, bench/run.py
        ("--format",),  # bench/run.py
    ],
    "metrics": [
        ("--pairs",),  # README, bench/run.py
        ("--secrets",),  # README, bench/run.py
        ("--shares",),  # README, bench/run.py
        ("--unishare",),  # README, bench/run.py
    ],
    "demo": [
        ("--seed",),  # README
        ("-o", "--out-dir"),  # README
    ],
    "selftest": [
        ("--seed",),  # README
        ("--json",),  # README, CI
    ],
}


def test_cli_flags_are_the_pinned_surface():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [tuple(a.option_strings) for a in parser._actions
                    if a.option_strings and a.dest != "help"]
             for name, parser in commands.choices.items()}
    assert flags == CLI_FLAGS


def test_a_second_main_call_builds_no_parser(secret_files, monkeypatch, capsys):
    argv = ["metrics", *map(str, secret_files)]
    assert main(argv) == 0  # builds the parser, unless an earlier call did
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert main(argv) == 0
    assert built == []


def test_the_reused_parser_carries_no_flag_to_the_next_call(tmp_path, secret_files,
                                                            monkeypatch):
    secrets = list(map(str, secret_files))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["encrypt", "--seed", "5", "--format", "p1", *secrets, "-o", str(first)]) == 0
    monkeypatch.setenv("QVMSS_SEED", "9")
    assert main(["encrypt", *secrets, "-o", str(second)]) == 0
    assert json.loads((first / "manifest.json").read_text())["seed"] == 5
    assert json.loads((second / "manifest.json").read_text())["seed"] == 9
    assert (first / "U.pbm").read_bytes().startswith(b"P1\n")
    assert (second / "U.pbm").read_bytes().startswith(b"P4\n")


def test_metrics_after_metrics_pairs_reports_one_pair(tmp_path, secret_files, capsys):
    out = tmp_path / "out"
    secrets = list(map(str, secret_files))
    assert main(["encrypt", "--seed", "3", *secrets, "-o", str(out)]) == 0
    assert main(["metrics", "--pairs", "--secrets", *secrets, "--shares", str(out / "S1.pbm"),
                 str(out / "S2.pbm"), "--unishare", str(out / "U.pbm")]) == 0
    capsys.readouterr()
    assert main(["metrics", *secrets]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_a_parse_error_leaves_the_parser_usable(tmp_path, secret_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", "--seed", "zz", str(secret_files[0])])
    assert exc.value.code == 2
    assert main(["encrypt", "--seed", "1", str(secret_files[0]), "-o", str(tmp_path)]) == 0


def splitmix64(seed, stream):
    """SplitMix64's cursor-0 draw of `stream`, over Python ints."""
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1FE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)
    return mix(mix(mix((seed + 0x9E3779B97F4A7C15) % 2**64) ^ stream))


def test_the_benchmark_surface_is_pinned(tmp_path, secret_files, monkeypatch):
    # What bench/run.py and bench/spans.py call, patch or read in the program, one
    # row per use, each named by its caller: a rename fails here before the benchmark.
    # spans.py's Tracer.patched wraps these five and reads a size from each call
    # (bench/run.py's _round_layers needs a scheme.encrypt span in every round): each
    # stand-in applies the same read, and each must run and read a positive int.
    reads = {
        (cli, "read_pbm"): lambda args, result: len(args[0]),
        (cli, "write_pbm"): lambda args, result: len(result),
        (cli, "encrypt"): lambda args, result: result.width * result.height,
        (cli, "decrypt"): lambda args, result: result.width * result.height,
        (metrics, "report"): lambda args, result: 1,
    }
    sizes = {name: [] for _, name in reads}

    def stand_in(fn, name, read):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            sizes[name].append(read(args, result))
            return result
        return traced

    for (module, name), read in reads.items():
        monkeypatch.setattr(module, name, stand_in(getattr(module, name), name, read))
    out, shares = tmp_path / "out", [str(tmp_path / "out" / f"S{k}.pbm") for k in (1, 2)]
    assert main(["encrypt", "--seed", "5", *map(str, secret_files), "-o", str(out)]) == 0
    assert main(["decrypt", "-u", str(out / "U.pbm"), *shares, "-o", str(tmp_path / "rec")]) == 0
    assert main(["metrics", "--pairs", "--secrets", *map(str, secret_files), "--shares",
                 *shares, "--unishare", str(out / "U.pbm")]) == 0
    assert [name for name, read in sizes.items()
            if not read or not all(type(size) is int and size > 0 for size in read)] == []
    manifest = json.loads((out / "manifest.json").read_text())
    image = qvmss.BinaryImage(3, 2, np.array([1, 0, 1, 1, 1, 0]))
    surface = [
        ("run.py _invoke", lambda: callable(cli.main)),
        # Only the benchmark calls unit_array; no Born bit comes from it.
        ("run.py _time_floor, spans.py Tracer.patched", lambda: np.array_equal(
            rng.unit_array(5, np.arange(4, dtype=np.uint64), 0),
            np.array([splitmix64(5, p) for p in range(4)], dtype=np.uint64))),
        ("run.py _check", lambda: all(
            hasattr(scheme.encode_pixel([1, 0], rng.RngStream(5, 3)), field) for field in "us")),
        ("run.py _time_floor", lambda: scheme.classical_encrypt([image], image) == [image ^ image]),
        ("run.py _time_floor", lambda: (image.width, image.height) == (3, 2)),
        ("run.py _check via checks.check_encrypt", lambda: manifest["seed"] == 5
            and manifest.keys() >= {"seed", "arity", "width", "height", "files"}),
    ]
    assert [caller for caller, reached in surface if not reached()] == []


@pytest.mark.parametrize("argv", [
    ["encrypt", "--json", "g1.pbm"], ["decrypt", "--json", "-u", "g1.pbm", "g2.pbm"],
    ["demo", "--json"], ["demo", "--threads", "2"], ["demo", "--format", "p1"],
    ["demo", "--size", "64"],
])
def test_removed_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def readme_commands():
    """Each `qvmss ...` command of the README's Command line block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qvmss ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QVMSS_SEED", "5")
    for i, kind in enumerate(["text_glyphs", "random"], start=1):
        (tmp_path / f"g{i}.pbm").write_bytes(write_pbm(make_fixture(kind, 48, 40, seed=i)))
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "encrypt", "decrypt", "metrics", "metrics", "demo", "selftest", "selftest"]
    for argv in commands:
        assert main(argv) == 0, argv


# ----------------------------------------------------------------- selftest

def test_selftest_passes(capsys):
    rc = main(["selftest", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def test_selftest_output_is_deterministic(capsys):
    assert main(["selftest", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_selftest_injected_fault_fails_round_trip(capsys, monkeypatch):
    real_encrypt = cli.encrypt

    def flip_first_share_pixel(*args, **kwargs):
        share_set = real_encrypt(*args, **kwargs)
        s1, *rest = share_set.shares
        flipped = s1.rows.copy()
        flipped[0, 0] ^= 0x80  # the first pixel is the top bit of the first byte
        s1 = BinaryImage.from_rows(s1.width, s1.height, flipped)
        return scheme.ShareSet(share_set.unishare, (s1, *rest))

    monkeypatch.setattr(cli, "encrypt", flip_first_share_pixel)
    rc = main(["selftest", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL round_trip" in out


def test_selftest_fails_a_share_that_is_its_secret(capsys, leaky_first_share):
    assert main(["selftest", "--seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "FAIL share_secret_independence: max |corr(G, S)| = 1.000000" in out


def test_selftest_fails_constant_shares_without_a_traceback(capsys, constant_shares):
    assert main(["selftest", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert ("FAIL share_secret_independence: corr(G, S) undefined: an image is constant"
            in captured.out.splitlines())
    assert "Traceback" not in captured.out + captured.err


def test_selftest_json_mode(capsys):
    rc = main(["selftest", "--seed", "11", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["passed"] is True
    assert len(payload["results"]) == 8


def test_selftest_help_lists_json(capsys):
    with pytest.raises(SystemExit):
        main(["selftest", "--help"])
    out = capsys.readouterr().out
    assert "--json" in out and "--inject-fault" not in out


# ----------------------------------------------------------- console script

def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qvmss"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def run_python(*args, wrapper=(), **kwargs):
    """`python ARGS` in a child that imports this same package, run by the
    command `wrapper` if one is given."""
    src = str(Path(qvmss.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([*wrapper, sys.executable, *args], text=True, env=env, **kwargs)


def run_cli(*args, **kwargs):
    """`python -m qvmss.cli ARGS` in a child that imports this same package."""
    return run_python("-m", "qvmss.cli", *args, **kwargs)


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # No command needs concurrent.futures, which would bring logging and queue with it.
    proc = run_python("-c", "import sys, qvmss.cli; print('concurrent.futures' in sys.modules)",
                      capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closed_stdout_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli("selftest", "--seed", "1", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: standard output: {os.strerror(errno.EPIPE)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_full_stdout_exits_2_with_one_error_line(tmp_path, secret_files):
    with open("/dev/full", "w") as full:
        proc = run_cli("encrypt", "--seed", "2", str(secret_files[0]), "-o", str(tmp_path),
                       stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: standard output: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
def test_a_closed_fd_1_exits_2_before_writing_anything(tmp_path, secret_files):
    # With fd 1 closed at start-up, sys.stdout is None: the run is refused before its files.
    out = tmp_path / "out"
    proc = run_cli("encrypt", "--seed", "1", str(secret_files[0]), "-o", str(out),
                   wrapper=("sh", "-c", 'exec "$@" >&-', "sh"), stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: standard output is closed"]
    assert not out.exists()


@pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
@pytest.mark.parametrize("redirect", [">&-", "2>&-", ">&- 2>&-", ">/dev/full", "2>/dev/full"])
def test_descriptor_states_end_in_the_documented_exit_code(redirect, tmp_path, secret_files):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    secret, missing = str(secret_files[0]), str(tmp_path / "missing.pbm")
    runs = {  # each command's arguments, and whether it succeeds with both descriptors open
        ("encrypt", "--seed", "1", secret, "-o", str(tmp_path / "ok")): True,
        ("encrypt", "--seed", "1", missing, "-o", str(tmp_path / "failed")): False,
        ("metrics", secret, secret): True,
        ("metrics", missing, secret): False,
    }
    wrapper = ("sh", "-c", f'exec "$@" {redirect}', "sh")
    # The four runs start together, so the five states take a few seconds in all.
    with ThreadPoolExecutor(len(runs)) as pool:
        procs = pool.map(lambda argv: run_cli(*argv, wrapper=wrapper, capture_output=True), runs)
    stdout_open, stderr_open = redirect.startswith("2>"), "2>" not in redirect
    for (argv, succeeds), proc in zip(runs.items(), procs):
        assert proc.returncode == (0 if succeeds and stdout_open else 2), argv
        assert "error:" not in proc.stdout, argv  # a lost stderr line never lands on stdout
        if stderr_open:
            assert "Traceback" not in proc.stderr, argv
            assert len(proc.stderr.splitlines()) == (proc.returncode != 0), argv
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="no /dev/full or /proc/self/fd on this platform")
def test_a_failed_stdout_leaves_no_descriptor_open(secret_files, monkeypatch):
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["metrics", *map(str, secret_files)]) == 2
        assert len(os.listdir("/proc/self/fd")) == before


def test_module_entry_point_runs(tmp_path, secret_files):
    out = tmp_path / "out"
    proc = run_cli("encrypt", "--seed", "2", str(secret_files[0]), "-o", str(out),
                   capture_output=True)
    assert proc.returncode == 0
    assert "seed: 2" in proc.stdout
    assert (out / "manifest.json").exists()


# ------------------------------------------------------- exit-code contract

_UNKNOWN_FLAGS = ["--json", "--bogus", "-z", "--size"]


@st.composite
def pbm_files(draw):
    """1..4 PBM files of 1..19 x 1..7 pixels, most of one size: each a valid P1
    or P4 image, or a mutation of one."""
    size = st.just((draw(st.integers(1, 19)), draw(st.integers(1, 7))))
    files = []
    for _ in range(draw(st.integers(1, 4))):
        width, height = draw(st.one_of(size, st.tuples(st.integers(1, 19), st.integers(1, 7))))
        image = make_fixture("random", width, height, seed=draw(st.integers(0, 255)))
        data = write_pbm(image, draw(st.sampled_from(PBM_FORMATS)))
        mutation = draw(st.sampled_from([None] * 10 + [
            "truncate", "flip", "digits", "comment", "trailing", "empty", "magic"]))
        if mutation == "truncate":
            data = data[:draw(st.integers(0, len(data) - 1))]
        elif mutation == "flip":
            at, bit = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 7))
            data = data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
        elif mutation == "digits":
            dims = [str(width), str(height)]
            dims[draw(st.integers(0, 1))] = draw(st.sampled_from(
                ["0", "00", "-3", str(imaging.MAX_DIMENSION + 1), "9" * 40]))
            data = data.replace(f"{width} {height}".encode(), " ".join(dims).encode(), 1)
        elif mutation == "comment":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"# 1 0\n" + data[at:]
        elif mutation == "trailing":
            data += draw(st.binary(min_size=1, max_size=8))
        elif mutation == "empty":
            data = b""
        elif mutation == "magic":
            data = draw(st.sampled_from([b"P2", b"P5", b"p1", b"P"])) + data[2:]
        files.append(data)
    return files


def contract_parsers():
    """`build_parser()`'s subcommands, but `demo` and `selftest`, which have their own tests."""
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {name: parser for name, parser in commands.choices.items()
            if name not in ("demo", "selftest")}


@st.composite
def flag_values(draw, action, paths):
    """Values for one of a subcommand's arguments, mostly good ones: a bad
    value is last in its pool, and a missing one a count of 0.  Hypothesis
    leans to the first entry of a pool, so that one is good."""
    if action.nargs == 0:
        return []
    if action.nargs in ("+", "*"):
        count = draw(st.sampled_from([2, 1, 3, 2, 17, 0]))
    else:
        count = draw(st.sampled_from([1] * 7 + [0]))
    if action.dest == "out_dir":
        pool = ["out"] * 3 + ["f0.pbm"]
    elif action.choices:
        pool = [*action.choices] * 2 + ["p7"]
    elif action.type is cli._seed:
        pool = ["1", "0x2a", str(2**300), "zz", "08"]
    elif action.type is cli.positive_int:
        pool = ["1", "2", "4", "0", "x"]
    else:  # images
        pool = paths
    return [draw(st.sampled_from(pool)) for _ in range(count)]


@st.composite
def cli_cases(draw):
    """`(files, argv)`: PBM files f0.pbm.. and an argv over them, missing.pbm
    and the directory ".", drawn from a subcommand's own arguments."""
    files = draw(pbm_files())
    paths = [f"f{i}.pbm" for i in range(len(files))] * 3 + ["missing.pbm", "."]
    parsers = contract_parsers()
    command = draw(st.sampled_from(sorted(parsers)))
    groups = []
    for action in parsers[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and draw(st.integers(0, 7)) >= (7 if action.required else 4):
            continue  # left out, a required flag now and then
        flag = [draw(st.sampled_from(action.option_strings))] if action.option_strings else []
        groups.append(flag + draw(flag_values(action, paths)))
    argv = [token for group in draw(st.permutations(groups)) for token in group]
    if draw(st.integers(0, 7)) == 7:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_UNKNOWN_FLAGS)))
    return files, [command, *argv]


def run_main(argv):
    """main(argv)'s exit code, stdout and stderr; argparse's usage exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_GOOD_FILES = [write_pbm(make_fixture("random", 5, 3, seed=1)),
               write_pbm(make_fixture("random", 5, 3, seed=2), "p1")]


@settings(max_examples=120)
@given(cli_cases())
@example((_GOOD_FILES, ["encrypt", "f0.pbm", "f1.pbm", "-o", "out", "--format", "p1"]))
@example((_GOOD_FILES, ["encrypt", "-o", "out"]))
@example((_GOOD_FILES, ["encrypt", *["f0.pbm"] * 17, "-o", "out"]))
@example((_GOOD_FILES, ["encrypt", "f0.pbm", "--seed", "zz", "-o", "out"]))
@example((_GOOD_FILES, ["decrypt", "-u", "f0.pbm", "f1.pbm", "--bogus", "-o", "out"]))
@example((_GOOD_FILES, ["metrics", "--pairs", "--secrets", "f0.pbm", "f1.pbm",
                        "--shares", "f1.pbm", "--unishare", "f0.pbm"]))
@example(([b"", b"P4\n5 3\n"], ["metrics", "f0.pbm", "f1.pbm"]))
def test_cli_exit_codes_hold_on_generated_arguments_and_files(case):
    # Every run ends in 0, 2 or 3 with one error line if it fails, and an
    # encryption that succeeds decrypts back to its secrets.
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for i, data in enumerate(files):
            Path(tmp, f"f{i}.pbm").write_bytes(data)
        cwd = os.getcwd()
        os.chdir(tmp)  # so the default output directory, ".", is the scratch one
        try:
            code, out, err = run_main(argv)
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            assert sum("error:" in line for line in err.splitlines()) == (code != 0), err
            if code == 0 and argv[0] == "encrypt":
                args = cli.build_parser().parse_args(argv)
                shares = [os.path.join(args.out_dir, f"S{i}.pbm")
                          for i in range(1, len(args.secrets) + 1)]
                assert run_main(["decrypt", "-u", os.path.join(args.out_dir, "U.pbm"),
                                 *shares, "-o", "rec"])[0] == 0
                for i, secret in enumerate(args.secrets, start=1):
                    recovered = Path("rec", f"G{i}_rec.pbm").read_bytes()
                    assert read_pbm(recovered) == read_pbm(Path(secret).read_bytes()), argv
        finally:
            os.chdir(cwd)
