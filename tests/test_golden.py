"""Byte-identity of the CLI JSON on fixed commands.

Each digest is the SHA-256 of the whole stdout of `cli.main`, recorded
before the grammar tables replaced the hand-written printers and keys; the
divisibility rows, before the functor rules moved into their classes.  A
change to any printed form, to the point or set sort order, or to an
extent hash shows up here.
"""

import contextlib
import hashlib
import io

import pytest

from noethkit.cli import main

# The word shape 1 + S*X over a two-letter chain, and the tree shape
# S*List(X) over two discrete labels.
WORD_SHAPE = "(sum unit (prod (const (qo (elems a b) (leq (a b)))) id))"
TREE_SHAPE = "(prod (fin a b) (list id))"
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
    (["divisibility", WORD_SHAPE, "--depth", "4", "--check", "embedding"],
     "883018ed28930ed0f1e73100ba029191610601cd719fa8bc2a35c5ccf3388efd"),
    (["divisibility", WORD_SHAPE, "--depth", "4", "--check", "stability"],
     "bb086a67fea5c22ff95766e241d6183460478401ccda0466992597813c46e5d4"),
    (["divisibility", WORD_SHAPE, "--depth", "4", "--check", "coincidence"],
     "2c5c9b43923d50eb59c2c34a9d1fc82faab80ce3af091d80a6cf13d5d7f640d7"),
    (["divisibility", TREE_SHAPE, "--depth", "3", "--check", "embedding"],
     "051a03bce5395b6eb08bc39998b5dc0b530f9f795211448f7e5a3818e2afcb7c"),
    (["divisibility", TREE_SHAPE, "--depth", "3", "--check", "stability"],
     "3ae0bb00e350aa8a9154693c0b481309dab1eebc5fcd4cae14a5fb34e0b526a7"),
    (["divisibility", TREE_SHAPE, "--depth", "3", "--check", "coincidence"],
     "52e8058381e4ccd7029d2453ec92e831143631a146238a48e6d1fbf5cbc3b046"),
]


def _row_id(argv):
    # A divisibility row is told apart by its shape and its check.
    if argv[0] == "divisibility":
        return " ".join(argv[:2] + argv[-1:])
    return " ".join(argv[:2])


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[_row_id(argv) for argv, _ in GOLDEN])
def test_cli_json_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
