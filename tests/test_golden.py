"""Byte-identity of the CLI JSON on fixed commands, and of the cut rules
of ordinal words.

Each CLI digest is the SHA-256 of the whole stdout of `cli.main`, recorded
before the grammar tables replaced the hand-written printers and keys; the
divisibility rows, before the functor rules moved into their classes; the
iterate rows of the other expanders, before step depths became plain
integers.  Every CLI expander has a row.  A change to any printed form, to
the point or set sort order, or to an extent hash shows up here.  The cut
digests are described at their table.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from noethkit.cli import EXPANDERS, main
from noethkit.ordinal import parse_ordinal
from noethkit.sets import member_closed
from noethkit.sexpr import parse_point, parse_set, parse_space, print_point
from noethkit.space import enumerate_points, ow_suffixes_strictly_after

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
    (["iterate", "div", "--steps", "5", "--bound", "8"],
     "e494deb90dbed9d8a5cc5735cd8b274ac3d836dee30e229001b0277d8e9c756c"),
    (["iterate", "ordsubword", "--steps", "2", "--bound", "4"],
     "b4018689741b604afe0fae1fc616598d995df9a4c2f4b48507530310aacd062c"),
    (["iterate", "ordtree", "--steps", "2", "--bound", "3"],
     "54d970f3b798f39191217bc29f4a083f881b64239c37ed1cee3c8696e0d5a8be"),
    (["iterate", "unfold-words", "--steps", "3", "--bound", "4"],
     "426f4d68b5ffffd733e8fb7da4a04d4b2d9c6a9be5642ed10deded6219e745f7"),
    (["iterate", "unfold-trees", "--steps", "2", "--bound", "4"],
     "49b2fb64c9c7a48c10ad90570c76a32809be8c55da2e671d513c0d6a9b3cc9b9"),
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


def test_every_cli_expander_has_a_golden_row():
    covered = {argv[1] for argv, _ in GOLDEN
               if argv[0] in ("iterate", "badchain")}
    assert set(EXPANDERS) <= covered


# -- the cut rules of ordinal words -------------------------------------------
#
# Digests recorded before every rule that cuts a run a^b into a^c . a^r read
# one list of cuts: the pairs of `OrdWords.splits` in order, the suffixes of
# `OrdWords.substructures` as a set, the suffixes of
# `ow_suffixes_strictly_after` in order, and `member_closed` of ordinal
# products.  The points are every point of (ordwords (fin a b) w*2) at bound
# 7 and words with infinite runs, the last three with several CNF terms in
# one run.

OW3 = parse_space("(ordwords (fin a b) w^3)")
RUN_POINTS = [parse_point(text) for text in (
    "(ordword (a w))", "(ordword (b 1) (a w))", "(ordword (a w) (b 2))",
    "(ordword (a w+1))", "(ordword (a 2) (b w))", "(ordword (a w*2+1))",
    "(ordword (a w^2+w*2+3) (b w))", "(ordword (b 2) (a w^2*2+1))")]
CUT_POINTS = list(enumerate_points(parse_space("(ordwords (fin a b) w*2)"),
                                   7)) + RUN_POINTS
BETAS = [parse_ordinal(t) for t in ("1", "2", "w", "w+1", "w*2")]
PRODUCT_ATOMS = ["(pow (down a) w)", "(pow (down a) w+1)",
                 "(pow (down a) w^2+w*2+1)", "(pow (wholec) 2)",
                 "(pow (wholec) w*2)", "(pow (wholec) w^2*2)",
                 "(pow (down b) w+1)", "(amo (down b))"]
PRODUCTS = ["(ordprod)"] + ["(ordprod %s)" % a for a in PRODUCT_ATOMS] + [
    "(ordprod %s %s)" % pair for pair in itertools.product(PRODUCT_ATOMS,
                                                          repeat=2)]


def _splits(p):
    return " ".join("%s|%s" % (print_point(u), print_point(v))
                    for u, v in OW3.splits(p))


def _substructures(p):
    return " ".join(sorted({print_point(s) for s in OW3.substructures(p)}))


def _suffixes_after(p):
    return " / ".join(" ".join(map(print_point,
                                   ow_suffixes_strictly_after(p, beta)))
                      for beta in BETAS)


def _products(p):
    return "".join("01"[member_closed(OW3, p, parse_set(text))]
                   for text in PRODUCTS)


CUT_GOLDEN = [
    (_splits,
     "3e4326fe97c3e455a958b6da315cbde219ab2558ae8c86ef5b0c6f885cc95e6c"),
    (_substructures,
     "b02fa534f0246e0ec57d665033ea10c320b6fbe617765213111b118461659005"),
    (_suffixes_after,
     "850a2520e352ad508fe06ec4e7103680e6f2be2a1bb391935c5096a6a9357d69"),
    (_products,
     "e099ab0edc081fa1395cae7993cf4a054136e772f25d2dabd751d6c68aecac72"),
]


@pytest.mark.parametrize("rule, digest", CUT_GOLDEN,
                         ids=[rule.__name__[1:] for rule, _ in CUT_GOLDEN])
def test_cut_rules_are_unchanged(rule, digest):
    assert len(CUT_POINTS) == 263
    lines = ("%s: %s" % (print_point(p), rule(p)) for p in CUT_POINTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
