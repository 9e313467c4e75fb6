"""Command-line pipeline: encrypt secrets into shares, decrypt them back,
score image pairs, run the built-in demo, or self-check the scheme.

Every run is reproducible: an explicit --seed (or QVMSS_SEED in the
environment) pins all randomness, and an auto-drawn seed is always echoed
so the run can be repeated.  Each output file is staged under a unique
temporary name and renamed into place, so it is replaced atomically;
manifest.json is renamed last.  manifest.json records
`{"seed", "arity", "width", "height", "files": {name: sha256-hex}}`.

The seed is key material, as secret as U.pbm: reduced mod 2**256, it keys
the SHAKE128 keystream whose bits are U.pbm, so the printed `seed:` line and
manifest.json's `seed` rebuild U.pbm, and with it every secret.  A small
seed is a small key.  An auto-drawn seed is 256 bits of OS entropy.

Exit codes: 0 success, 1 selftest property failure, 2 I/O or parse
failure (a closed stdout included), 3 image dimension mismatch.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import metrics, rng, scheme
from .imaging import BinaryImage, PbmParseError, PbmVariant, make_fixture, read_pbm, write_pbm
from .scheme import classical_encrypt, decrypt, decrypt_all, encrypt

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_IO = 2
EXIT_SHAPE = 3


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _seed(text: str) -> int:
    """A seed: any integer literal (0x, 0o and 0b allowed), reduced mod 2**256."""
    try:
        return int(text, 0) % (1 << rng.KEY_BITS)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("QVMSS_SEED")
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise _Failure(EXIT_IO, f"QVMSS_SEED is {exc}")
    return int.from_bytes(os.urandom(rng.KEY_BITS // 8), "big")


def _load_image(path: str) -> BinaryImage:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc}")
    try:
        return read_pbm(data)
    except PbmParseError as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc}")


# One pair record as `json.dumps(records, indent=2)` writes it inside the list.
# The json module writes a finite float as `float.__repr__`, which `%r` gives.
_RECORD = ('{\n    "a": %s,\n    "b": %s,\n    "mse": %r,\n    "psnr_db": %s,\n    "ssim": %r,'
           '\n    "correlation": %s,\n    "mismatch_fraction": %r,\n    "ones_fraction_a": %s,'
           '\n    "ones_fraction_b": %s,\n    "width": %d,\n    "height": %d\n  }')


def _pairs_json(names: list[str], scored: list[tuple[int, int, metrics.MetricsReport]]) -> str:
    """Exactly `json.dumps(records, indent=2)` of the records `{"a": names[i],
    "b": names[j], **report.to_dict()}` for each `(i, j, report)`, each from the
    `_RECORD` template: image i's name is JSON-escaped once, and its ones
    fraction written once, from the first report that scores it.  Against one
    json encoder per record, this took an n=8, 256² `metrics --pairs` from
    3.59 to 3.06 ms (benchmark medians, `BENCH_pairs.json`)."""
    quoted, ones, records = [json.dumps(name) for name in names], {}, []
    for i, j, r in scored:
        if i not in ones:
            ones[i] = repr(r.ones_fraction_a)
        if j not in ones:
            ones[j] = repr(r.ones_fraction_b)
        records.append(_RECORD % (
            quoted[i], quoted[j], r.mse, '"inf"' if math.isinf(r.psnr_db) else repr(r.psnr_db),
            r.ssim, "null" if r.correlation is None else repr(r.correlation),
            r.mismatch_fraction, ones[i], ones[j], r.width, r.height))
    return "[\n  " + ",\n  ".join(records) + "\n]" if records else "[]"


def _matching_images(paths: list[str]) -> Iterator[BinaryImage]:
    """The images at `paths` in order, each read only when it is reached and
    checked against the size of the first."""
    first = _load_image(paths[0])
    yield first
    for path in paths[1:]:
        image = _load_image(path)
        if (image.width, image.height) != (first.width, first.height):
            raise _Failure(EXIT_SHAPE, f"{path}: dimensions {image.width}x{image.height} "
                                       f"do not match {paths[0]} ({first.width}x{first.height})")
        yield image


def _publish(out_dir: str, files: Iterable[tuple[str, BinaryImage | bytes]], fmt: str,
             manifest: dict | None = None) -> list[str]:
    """Write the `(name, item)` pairs of `files` to out_dir in order: an image
    as a `fmt` PBM file, bytes as they are.

    Each file is serialized and staged under a unique name in turn, so only
    one is held in memory, and `files` may make each item as it is reached.
    With a `manifest`, each is also hashed, and manifest.json (its fields
    plus the SHA-256 of every file) is staged last.  Then each staged file
    is renamed into place in order, so manifest.json lands last.  Returns
    the file names in write order.
    """
    directory, variant = Path(out_dir), PbmVariant(fmt)
    digests, staged = {}, []

    def stage(name: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        staged.append((Path(tmp), directory / name))
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)

    try:
        directory.mkdir(parents=True, exist_ok=True)
        try:
            for name, item in files:
                payload = item if isinstance(item, bytes) else write_pbm(item, variant)
                if manifest is not None:
                    digests[name] = hashlib.sha256(payload).hexdigest()
                stage(name, payload)
                del payload  # so the next item is made beside no earlier file's bytes
            if manifest is not None:
                text = json.dumps({**manifest, "files": digests}, indent=2, sort_keys=True)
                stage("manifest.json", (text + "\n").encode("ascii"))
            for tmp, final in staged:
                os.replace(tmp, final)
        except BaseException:  # an interrupt too must not leave staged files behind
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise _Failure(EXIT_IO, f"{out_dir}: {exc}")
    return [final.name for _, final in staged]


def _print_written(out_dir: str, names: list[str]) -> None:
    for name in names:
        print(f"wrote {Path(out_dir) / name}")


def _numbered(pattern: str, images: Iterable[BinaryImage]) -> Iterator[tuple[str, BinaryImage]]:
    """`(pattern.format(i), image)` for the images in turn, i from 1."""
    return ((pattern.format(i), image) for i, image in enumerate(images, start=1))


def _share_files(share_set: scheme.ShareSet) -> dict[str, BinaryImage]:
    """The images `encrypt` writes: U.pbm, then S1.pbm .. Sn.pbm."""
    return dict([("U.pbm", share_set.unishare), *_numbered("S{}.pbm", share_set.shares)])


def _recovered_files(unishare: BinaryImage, shares) -> Iterator[tuple[str, BinaryImage]]:
    """The images `decrypt` writes, G1_rec.pbm .. Gn_rec.pbm, each recovered
    only when it is reached."""
    return _numbered("G{}_rec.pbm", (decrypt(unishare, share) for share in shares))


def _run_manifest(seed: int, share_set: scheme.ShareSet) -> dict:
    return {"seed": seed, "arity": len(share_set.shares),
            "width": share_set.width, "height": share_set.height}


def positive_int(text: str) -> int:
    """An argparse type: a decimal integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_encrypt(args) -> int:
    seed = _resolve_seed(args.seed)
    scheme._check_arity(len(args.secrets), "secret images")  # before reading any file
    secrets = list(_matching_images(args.secrets))
    share_set = encrypt(secrets, seed)
    names = _publish(args.out_dir, _share_files(share_set).items(), args.format,
                     manifest=_run_manifest(seed, share_set))
    print(f"seed: {seed}")
    _print_written(args.out_dir, names)
    return EXIT_OK


def cmd_decrypt(args) -> int:
    # One share at a time: each is read, checked and recovered when it is written.
    images = _matching_images([args.unishare, *args.shares])
    unishare = next(images)
    names = _publish(args.out_dir, _recovered_files(unishare, images), args.format)
    _print_written(args.out_dir, names)
    return EXIT_OK


def _pair_grid(n: int) -> list[tuple[int, int]]:
    """Index pairs over the images G1..Gn, S1..Sn, U: every secret x share
    pair, then every secret and share against the UniShare."""
    return [(g, n + s) for g in range(n) for s in range(n)] + [(i, 2 * n) for i in range(2 * n)]


def _scored(images: list[BinaryImage], pairs: list[tuple[int, int]]):
    """`(i, j, report)` for each index pair, one `metrics.report` call each."""
    return [(i, j, metrics.report(images[i], images[j])) for i, j in pairs]


def cmd_metrics(args) -> int:
    if args.pairs:
        if args.images or not (args.secrets and args.shares and args.unishare):
            raise _Failure(EXIT_IO, "--pairs needs --secrets, --shares and --unishare, "
                                    "not positional images")
        paths = [*args.secrets, *args.shares, args.unishare]
        scored = _scored(list(_matching_images(paths)), _pair_grid(len(args.secrets)))
        print(_pairs_json(paths, scored))
        return EXIT_OK

    if args.secrets or args.shares or args.unishare:
        raise _Failure(EXIT_IO, "--secrets, --shares and --unishare need --pairs")
    if len(args.images) != 2:
        raise _Failure(EXIT_IO, "metrics needs exactly two images (or --pairs)")
    a, b = _matching_images(args.images)
    print(json.dumps(metrics.report(a, b).to_dict(), indent=2))
    return EXIT_OK


def cmd_demo(args) -> int:
    seed = _resolve_seed(args.seed)
    fixtures = [make_fixture(k, 512, 512) for k in ("text_glyphs", "checkerboard")]
    share_set = encrypt(fixtures, seed)
    secrets = dict(_numbered("G{}.pbm", fixtures))
    share_files = _share_files(share_set)
    recovered = dict(_recovered_files(share_set.unishare, share_set.shares))

    # G1 G2 S1 S2 U, as `_pair_grid` takes them, then G1_rec G2_rec.
    graded = {**secrets, **dict(_numbered("S{}.pbm", share_set.shares)),
              "U.pbm": share_set.unishare, **recovered}
    names, n = list(graded), len(fixtures)
    scored = _scored(list(graded.values()), [(k, 2 * n + 1 + k) for k in range(n)] + _pair_grid(n))
    pairs_json = (_pairs_json(names, scored) + "\n").encode("ascii")
    artifacts = _publish(args.out_dir, {**secrets, **share_files, **recovered,
                                        "metrics_pairs.json": pairs_json}.items(),
                         "p4", manifest=_run_manifest(seed, share_set))

    print(f"seed: {seed}")
    print(f"artifacts in {args.out_dir}: {' '.join(artifacts)}")
    header = f"{'pair':<24} {'psnr_db':>8} {'ssim':>8} {'corr':>8} {'mismatch':>8}"
    print(header)
    print("-" * len(header))
    for i, j, r in scored:
        label = f"{names[i][:-4]} vs {names[j][:-4]}"
        cells = [f"{'n/a':>8}" if v is None else f"{v:8.4f}"  # PSNR may be inf
                 for v in (r.psnr_db, r.ssim, r.correlation, r.mismatch_fraction)]
        print(f"{label:<24} {' '.join(cells)}")
    return EXIT_OK


def _selftest_properties(seed: int):
    """Yield (name, passed, detail) for each scheme property."""
    size = 256
    bound = metrics.uniformity_bound(size * size)

    g1 = make_fixture("random", size, size, seed=seed ^ 0x5EC1)
    g2 = make_fixture("text_glyphs", size, size)
    share_set = encrypt([g1, g2], seed)
    s1, s2 = share_set.shares

    yield _check_two_branch_support()

    recovered = decrypt_all(share_set)
    ok = recovered[0] == g1 and recovered[1] == g2
    yield ("round_trip", ok, "decrypt_all(encrypt(G)) == G" if ok else "recovered images differ")

    oracle = classical_encrypt([g1, g2], share_set.unishare)
    ok = s1 == oracle[0] and s2 == oracle[1]
    yield ("oracle_equivalence", ok,
           "circuit shares match XOR oracle" if ok else "circuit shares differ from XOR oracle")

    dev = abs(share_set.unishare.ones_fraction() - 0.5)
    yield ("unishare_uniformity", dev <= bound, f"|ones-0.5| = {dev:.6f} (bound {bound:.6f})")

    devs = [abs(s.ones_fraction() - 0.5) for s in (s1, s2)]
    yield ("share_uniformity", max(devs) <= bound,
           f"max |ones-0.5| = {max(devs):.6f} (bound {bound:.6f})")

    ok = (s1 ^ s2) == (g1 ^ g2)
    yield ("pairwise_xor", ok, "S1 xor S2 == G1 xor G2" if ok else "pairwise XOR identity broken")

    combos = [(u, s) for u in (0, 1) for s in (0, 1)]
    ok = all(scheme.decode_pixel(u, s) == (u ^ s) for u, s in combos)
    yield ("decoder_agreement", ok,
           "receiver circuit decodes u xor s on all inputs" if ok
           else "receiver circuit disagrees with u xor s")


def _check_two_branch_support():
    for n in range(1, 5):
        for value in range(1 << n):
            g = [(value >> (n - 1 - j)) & 1 for j in range(n)]
            support = scheme.transmitter_state(g).probabilities()
            idx = [i for i, p in enumerate(support) if p > 0.0]
            if len(idx) != 2:
                return ("two_branch_support", False, f"support size {len(idx)} for g={g}")
            if idx[0] ^ idx[1] != (1 << (n + 1)) - 1:
                return ("two_branch_support", False, f"branches not complementary for g={g}")
            if any(abs(support[i] - 0.5) > 1e-12 for i in idx):
                return ("two_branch_support", False, f"branch probabilities off 0.5 for g={g}")
    return ("two_branch_support", True, "all g for n in 1..4: two complementary 0.5 branches")


def cmd_selftest(args) -> int:
    seed = _resolve_seed(args.seed)
    results = list(_selftest_properties(seed))
    failed = [name for name, passed, _ in results if not passed]
    if args.json:
        print(json.dumps({
            "seed": seed,
            "passed": not failed,
            "results": [
                {"property": name, "passed": passed, "detail": detail}
                for name, passed, detail in results
            ],
        }))
    else:
        print(f"seed: {seed}")
        for name, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if failed:
            print(f"{len(failed)} of {len(results)} properties failed")
        else:
            print(f"all {len(results)} properties passed")
    return EXIT_SELFTEST if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qvmss` parser, built on the first call and reused by every later one.

    Parsing leaves the parser as it was, so one parser serves every `main`
    call in a process.  Each subcommand's handler is a `cmd_*` function that
    looks up what it calls (`encrypt`, `read_pbm`, ...) as module globals
    when it runs, so patching those names still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="qvmss",
        description="Universal-share (n, n+1) multi-secret sharing of binary PBM images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = "integer master seed, mod 2**256 (default: QVMSS_SEED or OS entropy)"

    def add_output(p):
        p.add_argument("-o", "--out-dir", default=".", help="output directory")
        p.add_argument("--format", choices=["p1", "p4"], default="p4",
                       help="PBM variant for written images")

    p_enc = sub.add_parser("encrypt", help="encrypt n secrets into U.pbm and S1..Sn.pbm")
    p_enc.add_argument("secrets", nargs="+", help="secret images (PBM)")
    p_enc.add_argument("--seed", type=_seed, default=None, help=seed_help)
    p_enc.add_argument("--threads", type=positive_int, default=1,
                       help="accepted and ignored: encryption runs on one thread")
    add_output(p_enc)
    p_enc.set_defaults(handler=cmd_encrypt)

    p_dec = sub.add_parser("decrypt", help="recover secrets from the UniShare plus shares")
    p_dec.add_argument("-u", "--unishare", required=True, help="UniShare image (PBM)")
    p_dec.add_argument("shares", nargs="+", help="share images (PBM)")
    add_output(p_dec)
    p_dec.set_defaults(handler=cmd_decrypt)

    p_met = sub.add_parser("metrics", help="quality/secrecy metrics for image pairs")
    p_met.add_argument("images", nargs="*", help="two images to compare")
    p_met.add_argument("--pairs", action="store_true",
                       help="score every secret x share x UniShare pairing")
    p_met.add_argument("--secrets", nargs="+", default=None)
    p_met.add_argument("--shares", nargs="+", default=None)
    p_met.add_argument("--unishare", default=None)
    p_met.set_defaults(handler=cmd_metrics)

    p_demo = sub.add_parser("demo", help="end-to-end pipeline on built-in 512x512 fixtures, "
                                         "written as P4")
    p_demo.add_argument("--seed", type=_seed, default=None, help=seed_help)
    p_demo.add_argument("-o", "--out-dir", default="qvmss_demo", help="output directory")
    p_demo.set_defaults(handler=cmd_demo)

    p_self = sub.add_parser("selftest", help="run the scheme property suite")
    p_self.add_argument("--seed", type=_seed, default=None)
    p_self.add_argument("--json", action="store_true", help="machine-readable output")
    p_self.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads stdout; send what is still buffered to devnull so the
        # interpreter's exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except scheme.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
