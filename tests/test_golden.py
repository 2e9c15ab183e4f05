"""Byte-identity of the CLI JSON on fixed commands.

Each digest is the SHA-256 of the whole stdout of `cli.main`, recorded
before the grammar tables replaced the hand-written printers and keys.  A
change to any printed form, to the point or set sort order, or to an
extent hash shows up here.
"""

import contextlib
import hashlib
import io

import pytest

from noethkit.cli import main

GOLDEN = [
    (["iterate", "subword", "--steps", "3", "--bound", "4"],
     "bea4f50759354f972e1d5205338c7e3ceb462b641d30f43deecc15dffdeb6d5c"),
    (["iterate", "tree", "--steps", "2", "--bound", "4"],
     "5158783651e722b5b4d736c528eac09a835a1f007cad0061b45c5172da4ed96f"),
    (["badchain", "baditer", "--length", "5", "--bound", "6"],
     "0b89349e5119dd44a45ee52d85982a1868acd62e3b936cd580319b3cf971701e"),
    (["eval", "extent", "(whole)", "--space", "(ordwords (fin a b) w*2)",
      "--bound", "4"],
     "29c43f0d7ae54ba2fd61c4410d284e2141b967777136ab22fab5d1a2f615083d"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(argv[:2]) for argv, _ in GOLDEN])
def test_cli_json_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
