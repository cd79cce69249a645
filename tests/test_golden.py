"""Byte-for-byte comparison of CLI output against frozen golden files.

Each command in GOLDEN_COMMANDS runs through main() in process, and its
stdout must equal the file of the same name under tests/golden/.  Seeded
simulate output runs at one and at two workers against the same file.
Outputs too large to keep as files are checked against frozen sha256
digests instead: the 15 and 30 degree scans the benchmark runs, a 13
degree grid that is not closed under rotation, with odd probabilities
and angle cells 8 to 10 characters wide, the same grid and probabilities
as JSON at apparatus factor 0.5, and a 20 degree scan whose modified_lhs
column is all zero.  Four seeded simulate JSON runs, two
whose settings lie in the x-z plane, one out of it and one of the constant
model, are digests too, checked at one and at two workers.  Five of the
scans are rerun with the scan's slab size patched, so that their bytes
cannot depend on it.

A CSV scan writes bytes to the binary layer of the interpreter's own stdout
and text to any other.  So every golden file and scan digest is also checked
through a UTF-8 io.TextIOWrapper over an io.BytesIO that stands in for the
interpreter's stdout, and the 45 degree CSV scan through a UTF-16 one and
a caller's CRLF one, whose bytes must be what writing the text gives, as
must those of a real `python -m belltally` child writing to a pipe.

The files are regenerated with ``PYTHONPATH=src python tests/test_golden.py``.
Do that only for an intended output change, and declare it.  The same run
prints the current sha256 of every GOLDEN_DIGESTS and SIMULATE_DIGESTS
command (simulate at one worker) to stderr; the digests are not rewritten,
so a declared change edits them in this file by hand.
"""
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from belltally import chsh
from belltally.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "bound-default.csv": ["bound"],
    "bound-default.json": ["bound", "--format", "json"],
    "bound-angles.csv": ["bound", "--angles", "10,100,55,145", "--grid-step", "5"],
    "bound-angles.json": [
        "bound", "--angles", "10,100,55,145", "--grid-step", "5", "--format", "json",
    ],
    "scan-45-detection.csv": ["scan", "--grid-step", "45", "--detection", "0.9,0.8,0.85,0.95"],
    "scan-90.json": ["scan", "--grid-step", "90", "--format", "json"],
    "sequential.csv": ["sequential", "--angles", "10,77", "--detection", "0.8,0.7"],
    "sequential.json": [
        "sequential", "--angles", "10,77", "--detection", "0.8,0.7", "--format", "json",
    ],
    "simulate.csv": ["simulate", "--trials", "70000", "--seed", "7"],
    "simulate.json": ["simulate", "--trials", "70000", "--seed", "7", "--format", "json"],
}

# sha256 of stdout, frozen like the golden files: 331,776, 20,736, 531,441,
# 104,976 and 10,000 rows.
GOLDEN_DIGESTS = {
    "scan-15-detection.csv": (
        ["scan", "--grid-step", "15", "--detection", "0.9,0.8,0.85,0.95"],
        "9c5c02f8ad868245fb6624b7cc08dfafdd9121b6620d322c640ba3eea3e0c926",
    ),
    "scan-30.json": (
        ["scan", "--grid-step", "30", "--format", "json"],
        "22a722bff8d92865842f583199b59e498a50bdb54e5f2c8d3304aed91b60baf2",
    ),
    "scan-13-odd-detection.csv": (
        ["scan", "--grid-step", "13", "--detection", "0.3333,0.9999,0.123456789,1"],
        "d264be31b91b97fde1b1bb3294c61cd488e0b60856affdc8eec454cd6b497e41",
    ),
    "scan-20-zero-detection.csv": (
        ["scan", "--grid-step", "20", "--detection", "0"],
        "962bb87427dc22224988a1e4ffe84b2953cdfbbefc45bb32cb6ba1dd9708a84f",
    ),
    "scan-33-odd-detection.json": (
        ["scan", "--grid-step", "33", "--format", "json",
         "--detection", "0.3333,0.9999,0.123456789,1", "--apparatus-factor", "0.5"],
        "012086d34c7815dea899bf138f0b2e2fbe587f411df3fddd31b407a9b557dfa3",
    ),
}


# sha256 of seeded simulate JSON, each checked at one and at two workers.
# The tsirelson and the plane-angle settings read lam's x and z only; the
# out-of-plane setting also reads y.  The constant model is the degenerate
# case: every correlation is +1 and every std_error 0.0.
SIMULATE_DIGESTS = {
    "simulate-gisin-gisin-1e6.json": (
        ["simulate", "--format", "json", "--trials", "1000000"],
        "2e7904037973d51da2a05f215657ba1924e53de4de4fbcdf316312bcfef918d4",
    ),
    "simulate-sign-plane.json": (
        ["simulate", "--format", "json", "--model", "sign", "--angles", "10,100,55,145",
         "--trials", "300000"],
        "6a9f23fc043f253d552ef859ded0001ac4f6f262f86b7892b035c79a3a48829e",
    ),
    "simulate-out-of-plane.json": (
        ["simulate", "--format", "json", "--angles", "0,0,1;1,0,0;0.6,0.8,0;0,0.6,0.8",
         "--trials", "300000"],
        "1698ef78e4465d91241c9af34a477c14e875a538c63d80a33380f28f4878fa82",
    ),
    "simulate-constant.json": (
        ["simulate", "--format", "json", "--model", "constant", "--trials", "200000"],
        "85e584c42c74b008e9a55e506d4e979b4fe74550eb7f74495a1a4382b21ec447",
    ),
}


def run_main(argv):
    """stdout bytes of a successful main(argv) that wrote nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    return out.getvalue().encode("utf-8")


def run_main_wrapped(argv, native=True, **wrapper_args):
    """stdout bytes of a successful main(argv) that wrote nothing to stderr,
    into an io.TextIOWrapper(io.BytesIO(), **wrapper_args).  With native,
    the wrapper also stands in for sys.__stdout__, the interpreter's own."""
    raw = io.BytesIO()
    out, err = io.TextIOWrapper(raw, **wrapper_args), io.StringIO()
    own = mock.patch.object(sys, "__stdout__", out) if native else contextlib.nullcontext()
    with own, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    out.flush()
    return raw.getvalue()


# The interpreter's own stdout as CPython opens it on every platform.
OWN_STDOUT = {"encoding": "utf-8", "newline": "\n"}


def _cases():
    for name, argv in GOLDEN_COMMANDS.items():
        if argv[0] == "simulate":
            for workers in ("1", "2"):
                yield pytest.param(name, [*argv, "--workers", workers], id=f"{name}-w{workers}")
        else:
            yield pytest.param(name, argv, id=name)


@pytest.mark.parametrize("name, argv", list(_cases()))
def test_output_matches_golden(name, argv):
    assert run_main(argv) == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_output_matches_golden_digest(name):
    argv, digest = GOLDEN_DIGESTS[name]
    assert hashlib.sha256(run_main(argv)).hexdigest() == digest


@pytest.mark.parametrize("name, argv", list(_cases()))
def test_output_matches_golden_through_a_binary_stdout(name, argv):
    assert run_main_wrapped(argv, **OWN_STDOUT) == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_output_matches_golden_digest_through_a_binary_stdout(name):
    argv, digest = GOLDEN_DIGESTS[name]
    assert hashlib.sha256(run_main_wrapped(argv, **OWN_STDOUT)).hexdigest() == digest


# A UTF-16 stdout of the interpreter's own, which does not write ASCII as
# itself, and a caller's CRLF wrapper, whose newline mode cannot be read.
WRAPPERS = {
    "utf-16": ({"encoding": "utf-16", "newline": "\n"}, True, "\n", "utf-16"),
    "crlf": ({"encoding": "utf-8", "newline": "\r\n"}, False, "\r\n", "utf-8"),
}


@pytest.mark.parametrize("wrapper", list(WRAPPERS))
def test_csv_scan_writes_what_its_text_gives_any_wrapper(monkeypatch, wrapper):
    """Through either wrapper, the CSV scan writes its text's bytes, here
    in slabs of 3 of the 8 a' angles, so each a's last slab holds 2."""
    wrapper_args, native, newline, encoding = WRAPPERS[wrapper]
    argv = GOLDEN_COMMANDS["scan-45-detection.csv"]
    monkeypatch.setattr(chsh, "_SLAB_ROWS", 3 * 8 * 8)
    text = (GOLDEN_DIR / "scan-45-detection.csv").read_bytes().decode("utf-8")
    expected = text.replace("\n", newline).encode(encoding)
    assert run_main_wrapped(argv, native, **wrapper_args) == expected


def run_child(args, stdin=b"", **env):
    """stdout bytes of `python *args` writing to a pipe."""
    src = Path(__file__).parent.parent / "src"
    result = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )
    assert result.stderr == b""
    return result.stdout


def test_csv_scan_child_matches_golden_digest():
    argv, digest = GOLDEN_DIGESTS["scan-15-detection.csv"]
    assert hashlib.sha256(run_child(["-m", "belltally", *argv])).hexdigest() == digest


def test_utf16_csv_scan_child_writes_what_its_text_gives():
    """The child's own UTF-16 stdout gets what writing the text to it gives."""
    golden = (GOLDEN_DIR / "scan-45-detection.csv").read_bytes()
    argv = ["-m", "belltally", *GOLDEN_COMMANDS["scan-45-detection.csv"]]
    echo = ["-c", "import sys; sys.stdout.write(sys.stdin.buffer.read().decode())"]
    expected = run_child(echo, golden, PYTHONIOENCODING="utf-16")
    assert expected[:4] != golden[:4]
    assert run_child(argv, PYTHONIOENCODING="utf-16") == expected


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(SIMULATE_DIGESTS))
def test_simulate_matches_golden_digest(name, workers):
    argv, digest = SIMULATE_DIGESTS[name]
    assert hashlib.sha256(run_main([*argv, "--workers", workers])).hexdigest() == digest


# Scans rerun with chsh._SLAB_ROWS patched so that each slab holds k = 1,
# k = 3 or k = n of the n grid angles, or caps it at n // 2 + 1, which
# _scan_slabs evens to two runs of n // 2.  k = 3 divides neither n = 8 nor
# n = 10, so there each a's last slab is shorter.
SLAB_SCANS = {
    "scan-45-detection.csv": 8,
    "scan-90.json": 4,
    "scan-30.json": 12,
    "scan-20-zero-detection.csv": 18,
    "scan-33-odd-detection.json": 10,
}


@pytest.mark.parametrize("k", ["1", "3", "half-plus-one", "n"])
@pytest.mark.parametrize("name", list(SLAB_SCANS))
def test_scan_bytes_do_not_depend_on_the_slab_size(monkeypatch, name, k):
    n = SLAB_SCANS[name]
    slab_angles = {"1": 1, "3": 3, "half-plus-one": n // 2 + 1, "n": n}[k]
    monkeypatch.setattr(chsh, "_SLAB_ROWS", slab_angles * n * n)
    if name in GOLDEN_DIGESTS:
        argv, digest = GOLDEN_DIGESTS[name]
        assert hashlib.sha256(run_main(argv)).hexdigest() == digest
    else:
        assert run_main(GOLDEN_COMMANDS[name]) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        (GOLDEN_DIR / name).write_bytes(run_main(argv))
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    for name, (argv, frozen) in {**GOLDEN_DIGESTS, **SIMULATE_DIGESTS}.items():
        digest = hashlib.sha256(run_main(argv)).hexdigest()
        print(f"{name} {digest} ({'frozen' if digest == frozen else 'differs'})", file=sys.stderr)
