import re
from pathlib import Path
from typing import get_args

import pytest

import noethkit.sexpr
from noethkit.inductive import (
    ConstF,
    FunctorExpr,
    IdF,
    ListF,
    ProdF,
    SumF,
    UnitF,
    _FUNCTORS,
    parse_functor,
    print_functor,
    trees_functor,
    words_functor,
)
from noethkit.ordinal import OMEGA, ONE, Ordinal, parse_ordinal
from noethkit.sets import (
    AtMostOne,
    BaseOpen,
    CarrierOpen,
    ClosedExpr,
    ComplementOf,
    ConcatUp,
    DownClosure,
    Empty,
    EmptyC,
    Intersect,
    IntersectC,
    OpenExpr,
    OrdProduct,
    Power,
    PrefixConcat,
    ProductAtom,
    Rect,
    RTimes,
    SumOpen,
    TreeOpen,
    Triangle,
    Union,
    UnionC,
    UpClosure,
    UpSubstructure,
    Whole,
    WholeC,
    WordOpen,
)
from noethkit.sexpr import (
    _POINTS,
    _SETS,
    _SPACES,
    SexprError,
    parse_point,
    parse_set,
    parse_space,
    print_point,
    print_set,
    print_space,
    read,
)
from noethkit.space import (
    Atom,
    NatVal,
    Nat,
    OrdTreeNode,
    OrdTrees,
    OrdWord,
    OrdWords,
    Pair,
    PointTerm,
    Product,
    InL,
    InR,
    SpaceExpr,
    Sum,
    TreeNode,
    Trees,
    Word,
    Words,
    chain,
    discrete,
)

SPACES = [
    discrete("a", "b"),
    chain("a", "b", "c"),
    Nat(),
    Sum(discrete("a"), Nat()),
    Product(Nat(), Words(discrete("a", "b"))),
    Words(Nat()),
    Trees(discrete("a", "b")),
    OrdWords(discrete("a", "b"), parse_ordinal("w*2")),
    OrdTrees(discrete("a"), OMEGA),
]

POINTS = [
    Atom("a"),
    NatVal(7),
    Pair(NatVal(1), Atom("b")),
    InL(Atom("a")),
    InR(Pair(NatVal(0), Word(()))),
    Word((Atom("a"), Atom("b"), Atom("a"))),
    Word(()),
    TreeNode(Atom("a"), (TreeNode(Atom("b"), ()),)),
    OrdWord(((Atom("a"), OMEGA), (Atom("b"), ONE))),
    OrdTreeNode(Atom("a"), OrdWord(((OrdTreeNode(Atom("b"), OrdWord(())), ONE),))),
]

SETS = [
    Empty(),
    Whole(),
    Union((WordOpen((BaseOpen(frozenset("a")),)), UpClosure((Word(()),)))),
    Intersect((Whole(), WordOpen((BaseOpen(frozenset("ab")),)))),
    ConcatUp(WordOpen((BaseOpen(frozenset("a")),)), Whole()),
    TreeOpen(BaseOpen(frozenset("a")), Whole()),
    Triangle(OMEGA, WordOpen((BaseOpen(frozenset("b")),))),
    RTimes(DownClosure((Atom("a"),)), WordOpen((BaseOpen(frozenset("b")),))),
    PrefixConcat(BaseOpen(frozenset("a")), Whole()),
    UpSubstructure(PrefixConcat(BaseOpen(frozenset("b")), Whole())),
    OrdProduct((AtMostOne(DownClosure((Atom("a"),))),
                Power(DownClosure((Atom("b"),)), parse_ordinal("w+1")))),
    ComplementOf(WordOpen((BaseOpen(frozenset("a")),))),
    Rect(UpClosure((Atom("a"), Atom("b"))), Whole()),
    SumOpen(BaseOpen(frozenset()), Empty()),
    WordOpen((BaseOpen(frozenset("ab")), UpClosure((Atom("b"),)),
              BaseOpen(frozenset("a")))),
    CarrierOpen(UnionC((DownClosure((Word(()),)), EmptyC()))),
    IntersectC((WholeC(), DownClosure((NatVal(3), NatVal(4))))),
    UpClosure((InL(Atom("a")), InR(NatVal(2)))),
    DownClosure(()),
    EmptyC(),
    WholeC(),
    UnionC(()),
    BaseOpen(frozenset("ba")),
    AtMostOne(WholeC()),
    Power(ComplementOf(Whole()), OMEGA),
]

FUNCTORS = [
    words_functor(discrete("a", "b")),
    trees_functor(discrete("a")),
    UnitF(),
    IdF(),
    ConstF(Nat()),
    ConstF(chain("a", "b")),
    ListF(SumF(IdF(), ProdF(UnitF(), ConstF(Words(discrete("a")))))),
]

# Every constructor of every grammar, with the parser of its grammar.
CONSTRUCTORS = [(cls, parse) for union, parse in [
    (SpaceExpr, parse_space), (PointTerm, parse_point), (OpenExpr, parse_set),
    (ClosedExpr, parse_set), (ProductAtom, parse_set),
    (FunctorExpr, parse_functor)] for cls in get_args(union)]


class TestRoundTrips:
    @pytest.mark.parametrize("space", SPACES, ids=print_space)
    def test_space(self, space):
        assert parse_space(print_space(space)) == space

    @pytest.mark.parametrize("point", POINTS, ids=print_point)
    def test_point(self, point):
        assert parse_point(print_point(point)) == point

    @pytest.mark.parametrize("expr", SETS, ids=print_set)
    def test_set(self, expr):
        assert parse_set(print_set(expr)) == expr

    def test_functor(self):
        f = words_functor(discrete("a", "b"))
        assert parse_functor(print_functor(f)) == f
        assert parse_functor("(mu (sum unit (prod (fin a b) id)))") == f

    def test_name_sets_print_sorted(self):
        names = "".join(map(chr, range(ord("a"), ord("z") + 1)))
        assert print_set(BaseOpen(frozenset(names))) == \
            "(base %s)" % " ".join(names)

    @pytest.mark.parametrize("cls, parse", CONSTRUCTORS,
                             ids=[cls.__name__ for cls, _ in CONSTRUCTORS])
    def test_every_constructor(self, cls, parse):
        examples = [x for x in SPACES + POINTS + SETS + FUNCTORS
                    if type(x) is cls]
        assert examples, "no round-trip example of %s" % cls.__name__
        for x in examples:
            assert parse(print_functor(x)) == x


def _block_heads(text: str) -> set:
    return set(re.findall(r"\(([a-z]+)", text))


class TestDocs:
    """Every head of the grammar tables is documented in the sexpr module
    docstring and in the README grammar block."""

    HEADS = sorted(set(_SPACES) | set(_POINTS) | set(_SETS) | set(_FUNCTORS))

    def readme_grammar(self) -> str:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        start = text.index("### Grammar")
        return text[start:text.index("```", text.index("```", start) + 3)]

    @pytest.mark.parametrize("head", HEADS)
    def test_head_is_documented(self, head):
        assert head in _block_heads(noethkit.sexpr.__doc__)
        assert head in _block_heads(self.readme_grammar())


class TestErrors:
    DEEP = "nesting deeper than 100 levels"

    def test_unbalanced(self):
        with pytest.raises(SexprError):
            read("(word a")

    def test_trailing(self):
        with pytest.raises(SexprError):
            read("(word a) b")

    @pytest.mark.parametrize("text, message, pos", [
        ("(word a", "missing ')' (line 1, column 1)", 0),
        ("(a (b", "missing ')' (line 1, column 4)", 3),
        ("(word a) b", "trailing input (line 1, column 10)", 9),
        ("id)", "trailing input (line 1, column 3)", 2),
        (")", "unexpected ')' (line 1, column 1)", 0),
        ("  \n ", "unexpected end of input", -1),
        ("(" * 101 + ")" * 101, DEEP + " (line 1, column 101)", 100),
        # The nesting check wins over the earlier unexpected ')'.
        (") " + "(" * 102, DEEP + " (line 1, column 104)", 103),
        ("(word a\n  (b c)\n  d))", "trailing input (line 3, column 5)", 20),
        ("(a)\n\n  )", "trailing input (line 3, column 3)", 7),
        # U+001C is whitespace to str.isspace, so ")" is the second token.
        ("(word a)\x1c)", "trailing input (line 1, column 10)", 9),
    ])
    def test_message_and_position(self, text, message, pos):
        with pytest.raises(SexprError) as info:
            read(text)
        assert (str(info.value), info.value.pos) == (message, pos)

    def test_deepest_allowed_nesting(self):
        expr = read("(" * 100 + ")" * 100)
        for _ in range(99):
            assert len(expr) == 1
            expr = expr[0]
        assert expr == []

    def test_non_ascii_whitespace_separates_tokens(self):
        assert read("(word\x1ca\u3000b)") == ["word", "a", "b"]

    def test_unknown_constructor(self):
        with pytest.raises(SexprError):
            parse_set("(frobnicate 1)")


class TestParseMemo:
    """Each entry point remembers the texts it parsed: one shared term per
    text, errors never stored, already-read lists parsed afresh."""

    ENTRIES = [(parse_space, "(words (fin a b))"), (parse_point, "(word a b)"),
               (parse_set, "(wordopen (up a) (base b))")]

    @pytest.mark.parametrize("parse, text", ENTRIES)
    def test_equal_texts_give_the_same_term(self, parse, text):
        assert parse(text) is parse("".join(list(text)))

    @pytest.mark.parametrize("parse, text", ENTRIES)
    def test_bad_text_raises_every_time_and_is_not_stored(self, parse, text):
        parse.cache_clear()
        for _ in range(2):
            with pytest.raises(SexprError):
                parse(text + ")")
        assert parse.cache_info().currsize == 0

    @pytest.mark.parametrize("parse, text", ENTRIES)
    def test_read_list_bypasses_the_memo(self, parse, text):
        parse.cache_clear()
        assert parse(read(text)) == parse(text)
        info = parse.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)

    @pytest.mark.parametrize("parse, text", ENTRIES)
    def test_memo_is_bounded(self, parse, text):
        assert parse.cache_info().maxsize == noethkit.sexpr.PARSE_MEMO_SIZE
        assert 0 < noethkit.sexpr.PARSE_MEMO_SIZE < float("inf")

