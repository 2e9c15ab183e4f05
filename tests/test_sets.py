import ast
import itertools
import random
from dataclasses import fields
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import noethkit.sets
from noethkit.ordinal import OMEGA, ONE, Ordinal, add, parse_ordinal
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
    IncludesResult,
    OpenExpr,
    OrdProduct,
    Power,
    PrefixConcat,
    ProductAtom,
    Rect,
    RTimes,
    RewriteShapeError,
    SetError,
    SumOpen,
    TopologyDesc,
    TreeOpen,
    Triangle,
    Union,
    UnionC,
    UpSubstructure,
    UpClosure,
    Whole,
    WholeC,
    WordOpen,
    base_complement,
    closure_point,
    complement_ordinal_product,
    extent,
    find_good_index,
    includes,
    lattice_contains,
    meet_table,
    member_closed,
    member_open,
    normalize_open,
    normalize_opens,
    oracle_for,
    restrict,
    rtimes_rewrite,
    spec_leq,
    spec_leq_restricted,
    up_closure,
    _OPEN_FIELDS,
)
from noethkit.sexpr import _SETS
from noethkit.space import (
    Atom,
    InL,
    InR,
    NatVal,
    Nat,
    OrdTreeNode,
    OrdTrees,
    OrdWord,
    OrdWords,
    Pair,
    Product,
    SpaceError,
    Sum,
    TreeNode,
    Trees,
    Word,
    Words,
    discrete,
    enumerate_points,
    finite_qo,
    ord_to_word,
    ord_word,
    point_leq,
    typecheck,
)

from oracles import (good_index_brute, higman_brute, in_generated_lattice,
                     lattice_brute, same_generated_lattice)

AB = discrete("a", "b")
WAB = Words(AB)
OWAB = OrdWords(AB, parse_ordinal("w*2"))
UA = BaseOpen(frozenset("a"))
UB = BaseOpen(frozenset("b"))


def w(text: str) -> Word:
    return Word(tuple(Atom(c) for c in text))


def ow(*segments) -> OrdWord:
    return OrdWord(tuple((Atom(x), beta) for x, beta in segments))


# -- definitional-unfolding oracles -------------------------------------------


def word_open_def(word, parts, base_member):
    """Definition of <U1..Un>: some increasing choice of positions."""
    letters = word.letters
    for positions in itertools.combinations(range(len(letters)), len(parts)):
        if all(base_member(letters[j], part)
               for j, part in zip(positions, parts)):
            return True
    return len(parts) == 0


def concat_up_def(space, word, left, right, bound):
    """Definition of up(UV): some u in U, v in V with uv embedded in word."""
    for u in extent(space, left, bound):
        for v in extent(space, right, bound):
            glued = Word(u.letters + v.letters)
            if point_leq(space, glued, word):
                return True
    return False


def triangle_def(space, word, beta, inner):
    """Definition of b |> U on a finite word: every suffix past a position
    < b lies in U (positions at or past the end give the empty suffix)."""
    letters = word.letters
    checks = []
    n = len(letters)
    if beta.is_finite():
        k = beta.to_int()
        checks = [Word(letters[g + 1:]) for g in range(min(k, n))]
        if k > n:
            checks.append(Word(()))
    else:
        checks = [Word(letters[g + 1:]) for g in range(n)]
        checks.append(Word(()))
    return all(member_open(space, s, inner) for s in checks)


def rtimes_def(space, word, closed, inner, bound):
    """Definition of F |x U: some av with a outside F, av in U, av <= word."""
    base = space.base
    for av in extent(space, Whole(), bound):
        if not av.letters:
            continue
        if member_closed(base, av.letters[0], closed):
            continue
        if member_open(space, av, inner) and point_leq(space, av, word):
            return True
    return False


def drop_first(word: OrdWord) -> OrdWord:
    """An ordinal word past its first position: the first run's count c
    becomes the c' with 1 + c' = c, which is c itself when c is infinite."""
    (letter, count), rest = word.segments[0], word.segments[1:]
    if count.is_finite():
        count = Ordinal.from_int(count.to_int() - 1)
    return OrdWord((() if count.is_zero() else ((letter, count),)) + rest)


def word_suffixes(word: Word):
    return [Word(word.letters[i:]) for i in range(len(word.letters) + 1)]


def subtrees(tree):
    """A tree and the subtrees of its children, the runs of an ordinal
    tree's children read once each."""
    kids = (tree.children if isinstance(tree, TreeNode)
            else [c for c, _ in tree.children.segments])
    return [tree] + [s for c in kids for s in subtrees(c)]


def tree_open_def(space, tree, root_open, children_open):
    """Definition of TreeOpen: some subtree's root label lies in root_open
    and its children, as a word over the tree space, in children_open."""
    if isinstance(space, Trees):
        kids_space, kids = Words(space), lambda t: Word(t.children)
    else:
        kids_space, kids = OrdWords(space, space.alpha), lambda t: t.children
    return any(member_open(space.base, s.label, root_open)
               and member_open(kids_space, kids(s), children_open)
               for s in subtrees(tree))


# -- membership ---------------------------------------------------------------


class TestMemberOpen:
    def test_word_open_examples(self):
        pattern = WordOpen((UA, UB))
        assert member_open(WAB, w("abb"), pattern)
        assert not member_open(WAB, w("b"), pattern)
        assert not member_open(WAB, w("ba"), pattern)

    def test_empty_word_in_no_nonempty_pattern(self):
        assert not member_open(WAB, w(""), WordOpen((UA,)))
        assert not member_open(WAB, w(""), WordOpen((UA, UB)))
        assert member_open(WAB, w(""), WordOpen(()))

    def test_word_open_matches_definition(self):
        parts_menu = [UA, UB, BaseOpen(frozenset("ab"))]
        base_member = lambda letter, part: letter.name in part.names
        for n in range(3):
            for parts in itertools.product(parts_menu, repeat=n):
                expr = WordOpen(tuple(parts))
                for word in enumerate_points(WAB, 4):
                    assert member_open(WAB, word, expr) == word_open_def(
                        word, parts, base_member), (parts, word)

    def test_word_open_over_ordinal_words_matches_definition(self):
        # Finite runs, many of them longer than one letter, against the
        # definition on the expanded word.
        parts_menu = [UA, UB, BaseOpen(frozenset("ab"))]
        base_member = lambda letter, part: letter.name in part.names
        words = enumerate_points(OWAB, 5)
        assert any(count.to_int() > 1 for p in words for _, count in p.segments)
        for n in range(4):
            for parts in itertools.product(parts_menu, repeat=n):
                expr = WordOpen(tuple(parts))
                for word in words:
                    assert member_open(OWAB, word, expr) == word_open_def(
                        ord_to_word(word), parts, base_member), (parts, word)

    def test_word_open_over_omega_runs(self):
        a2 = ow(("a", Ordinal.from_int(2)))
        assert member_open(OWAB, a2, WordOpen((UA, UA)))
        assert not member_open(OWAB, a2, WordOpen((UA, UA, UA)))
        assert member_open(OWAB, ow(("a", OMEGA)), WordOpen((UA, UA, UA)))
        # Repeated parts on both sides of an omega run.
        b_aw_b = ow(("b", ONE), ("a", OMEGA), ("b", ONE))
        for pattern, inside in [("bab", True), ("baaab", True), ("bb", True),
                                ("aab", True), ("bbb", False), ("abb", False),
                                ("bba", False), ("babab", False)]:
            expr = WordOpen(tuple({"a": UA, "b": UB}[c] for c in pattern))
            assert member_open(OWAB, b_aw_b, expr) == inside, pattern

    def test_base_open_over_an_ordered_base(self):
        # Over a <= b the upward-closed name sets answer; {a} does not.
        a_below_b = finite_qo("ab", [("a", "b")])
        for names, inside in [("b", {"b"}), ("ab", {"a", "b"})]:
            u = BaseOpen(frozenset(names))
            assert {x for x in "ab" if member_open(a_below_b, Atom(x), u)} \
                == inside
        with pytest.raises(SetError, match="not upward closed"):
            member_open(a_below_b, Atom("b"), UA)

    def test_concat_up_matches_definition(self):
        menu = [WordOpen((UA,)), WordOpen((UB,)), WordOpen((UA, UA))]
        for left, right in itertools.product(menu, repeat=2):
            expr = ConcatUp(left, right)
            for word in enumerate_points(WAB, 4):
                assert member_open(WAB, word, expr) == concat_up_def(
                    WAB, word, left, right, 4), (left, right, word)

    def test_triangle_over_omega_run(self):
        space = OrdWords(AB, add(OMEGA, ONE))
        a_omega = ow(("a", OMEGA))
        assert member_open(space, a_omega, Triangle(OMEGA, WordOpen((UA,))))
        assert not member_open(space, a_omega, Triangle(OMEGA, WordOpen((UB,))))

    def test_triangle_matches_definition_on_finite_words(self):
        betas = [ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA]
        inners = [WordOpen((UA,)), WordOpen((UB,)), Whole()]
        from noethkit.space import word_to_ord
        for beta, inner in itertools.product(betas, inners):
            expr = Triangle(beta, inner)
            for word in enumerate_points(WAB, 3):
                got = member_open(OWAB, word_to_ord(word), expr)
                want = triangle_def(WAB, word, beta, inner)
                assert got == want, (beta, inner, word)

    def test_triangle_of_a_closure_on_finite_words(self):
        # The suffixes of a finite word are words of the same space, so a
        # closure of words applies to them.
        inner = UpClosure((w("b"),))
        for beta in (ONE, Ordinal.from_int(2), OMEGA):
            for word in enumerate_points(WAB, 3):
                assert member_open(WAB, word, Triangle(beta, inner)) == \
                    triangle_def(WAB, word, beta, inner), (beta, word)

    def test_tree_open_subtree_search(self):
        from noethkit.sets import TreeOpen
        abcd = discrete("a", "b", "c", "d")
        space = Trees(abcd)
        tree = TreeNode(Atom("a"), (TreeNode(Atom("b"), ()), TreeNode(Atom("c"), ())))
        def diamond(names):
            return TreeOpen(BaseOpen(frozenset(names)), Whole())
        assert member_open(space, tree, diamond("b"))
        assert member_open(space, tree, diamond("a"))
        assert not member_open(space, tree, diamond("d"))

    def test_tree_open_children_pattern(self):
        from noethkit.sets import TreeOpen
        space = Trees(AB)
        # Children pattern: some subtree has a b-rooted child before an
        # a-rooted child.
        pattern = TreeOpen(
            Whole(),
            WordOpen((TreeOpen(UB, Whole()), TreeOpen(UA, Whole()))))
        good = TreeNode(Atom("a"), (TreeNode(Atom("b"), ()), TreeNode(Atom("a"), ())))
        bad = TreeNode(Atom("a"), (TreeNode(Atom("a"), ()), TreeNode(Atom("b"), ())))
        assert member_open(space, good, pattern)
        assert not member_open(space, bad, pattern)

    def test_rtimes_matches_definition(self):
        closeds = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),)), EmptyC()]
        inners = [WordOpen((UB,)), WordOpen((UA,)), Whole(),
                  UpClosure((w("b"),))]
        for f, inner in itertools.product(closeds, inners):
            expr = RTimes(f, inner)
            for word in enumerate_points(WAB, 4):
                assert member_open(WAB, word, expr) == rtimes_def(
                    WAB, word, f, inner, 4), (f, inner, word)

    def test_prefix_concat(self):
        expr = PrefixConcat(UA, WordOpen((UB,)))
        assert member_open(WAB, w("ab"), expr)
        assert member_open(WAB, w("aab"), expr)
        assert not member_open(WAB, w("ba"), expr)
        assert not member_open(WAB, w("a"), expr)


class TestMemberClosed:
    def test_power_finite_words(self):
        p = OrdProduct((Power(DownClosure((Atom("a"),)), OMEGA),))
        assert member_closed(OWAB, ow(("a", Ordinal.from_int(5))), p)
        assert not member_closed(OWAB, ow(("a", OMEGA)), p)

    def test_power_then_at_most_one(self):
        p = OrdProduct((Power(DownClosure((Atom("a"),)), OMEGA),
                        AtMostOne(DownClosure((Atom("b"),)))))
        assert member_closed(OWAB, ow(("a", ONE), ("b", ONE)), p)
        assert member_closed(OWAB, ow(("b", ONE)), p)
        assert member_closed(OWAB, OrdWord(()), p)
        assert not member_closed(OWAB, ow(("b", ONE), ("a", ONE)), p)
        assert not member_closed(OWAB, ow(("b", Ordinal.from_int(2))), p)

    def test_empty_word_in_every_product(self):
        products = [
            OrdProduct(()),
            OrdProduct((Power(WholeC(), OMEGA),)),
            OrdProduct((AtMostOne(WholeC()), Power(DownClosure((Atom("a"),)), ONE))),
        ]
        for p in products:
            assert member_closed(OWAB, OrdWord(()), p)

    def test_ordinal_length_split(self):
        # a^w b  lies in  {a}^{<w+1} {b}^{<=1}  but not {a}^{<w} {b}^{<=1}.
        space = OrdWords(AB, parse_ordinal("w*2"))
        word = ow(("a", OMEGA), ("b", ONE))
        wide = OrdProduct((Power(DownClosure((Atom("a"),)), add(OMEGA, ONE)),
                           AtMostOne(DownClosure((Atom("b"),)))))
        narrow = OrdProduct((Power(DownClosure((Atom("a"),)), OMEGA),
                             AtMostOne(DownClosure((Atom("b"),)))))
        assert member_closed(space, word, wide)
        assert not member_closed(space, word, narrow)

    def test_downward_closedness_on_universe(self):
        p = OrdProduct((Power(DownClosure((Atom("a"),)), Ordinal.from_int(3)),
                        AtMostOne(DownClosure((Atom("b"),)))))
        oracle = oracle_for(OWAB, 4)
        inside = oracle.extent(p)
        for x in oracle.universe:
            for y in inside:
                if point_leq(OWAB, x, y):
                    assert x in inside


class TestIncludes:
    def test_red_arrow_inclusion(self):
        a_then_b = WordOpen((UA, UB))
        just_b = WordOpen((UB,))
        assert includes(WAB, a_then_b, just_b).value is True

    def test_non_inclusion_with_witness(self):
        just_a = WordOpen((UA,))
        a_then_b = WordOpen((UA, UB))
        r = includes(WAB, just_a, a_then_b)
        assert r.value is False
        assert r.witness == w("a")

    def test_reflexive(self):
        u = WordOpen((UA,))
        assert includes(WAB, u, u).value is True

    def test_up_closure_fragment_is_exact(self):
        a = UpClosure((w("aa"),))
        b = Union((UpClosure((w("a"),)), UpClosure((w("bb"),))))
        r = includes(WAB, a, b)
        assert r.value is True and r.via == "up-closure" and r.bound is None

    def test_negative_bound_is_an_error_on_the_extent_path(self):
        # (word a b) lies in `both`, which an empty universe would hide.
        both = Intersect((WordOpen((UA,)), WordOpen((UB,))))
        for bound in (-1, -3):
            with pytest.raises(SetError, match="at least 0"):
                includes(WAB, both, Empty(), bound)
        r = includes(WAB, both, Empty(), 0)
        assert (r.value, r.via, r.bound) == (True, "extent", 0)
        r = includes(WAB, both, Empty(), 2)
        assert (r.value, r.via, r.witness) == (False, "extent", w("ab"))

    def test_exact_answer_reads_no_bound(self):
        r = includes(WAB, UpClosure((w("aa"),)), UpClosure((w("a"),)), -1)
        assert (r.value, r.via, r.bound) == (True, "up-closure", None)

    def test_word_open_rule_complete_at_small_sizes(self):
        # Gate: the syntactic rule must agree with extent inclusion at bound 6
        # for all patterns with parts over a two-letter discrete base.
        menu = [UA, UB, BaseOpen(frozenset("ab"))]
        patterns = []
        for n in range(4):
            patterns.extend(WordOpen(tuple(c))
                            for c in itertools.product(menu, repeat=n))
        oracle = oracle_for(WAB, 6)
        for a, b in itertools.product(patterns, repeat=2):
            got = includes(WAB, a, b)
            want = oracle.extent(a) <= oracle.extent(b)
            assert (got.value is True) == want, (a, b)
            if got.value is False:
                assert got.witness is not None, (a, b)
                assert member_open(WAB, got.witness, a)
                assert not member_open(WAB, got.witness, b)

    def test_find_good_index(self):
        n = Nat()
        seq = [UpClosure((NatVal(2),)), UpClosure((NatVal(1),)),
               UpClosure((NatVal(3),))]
        hit = find_good_index(n, seq, bound=8)
        assert hit is not None and hit[0] == 2

    def test_find_good_index_repeat(self):
        seq = [WordOpen((UA,)), WordOpen((UB,)), WordOpen((UA,))]
        hit = find_good_index(WAB, seq, bound=4)
        assert hit is not None and hit[0] == 2

    def test_find_good_index_none_on_bad(self):
        seq = [UpClosure((w("b"),)), UpClosure((w("a"),))]
        assert find_good_index(WAB, seq, bound=5) is None


NAT2 = Product(Nat(), Nat())
GOOD_BOUND = 4


def nat2(x, y):
    return Pair(NatVal(x), NatVal(y))


@st.composite
def good_case(draw, up_only=False):
    """A space and a sequence of opens over it: up-closures (empty ones, and
    over words the empty word's, which normalises to Whole), unions of
    up-closures, repeats of earlier opens, and non-up opens (letter
    patterns, rectangles) that send the certificate through `includes`."""
    space = draw(st.sampled_from([WAB, NAT2]))
    if space == WAB:
        point = st.text("ab", min_size=1, max_size=3).map(w)
        rare = st.sampled_from([UpClosure(()), UpClosure((w(""),))])
        other = st.lists(st.sampled_from([UA, UB]), min_size=1,
                         max_size=2).map(lambda ps: WordOpen(tuple(ps)))
    else:
        point = st.builds(nat2, st.integers(0, 3), st.integers(0, 3))
        rare = st.just(UpClosure(()))
        other = st.builds(lambda x: Rect(UpClosure((NatVal(x),)), Whole()),
                          st.integers(0, 3))
    up = st.lists(point, min_size=1, max_size=3).map(
        lambda ps: UpClosure(tuple(ps)))
    union = st.lists(st.one_of(up, rare), min_size=2, max_size=3).map(
        lambda us: Union(tuple(us)))
    shapes = [up, up, union, union, rare]
    opens = st.one_of(*shapes) if up_only else st.one_of(*shapes, other)
    seq = draw(st.lists(opens, max_size=7))
    for at in draw(st.lists(st.integers(0, 7), max_size=3)):
        if seq:
            seq.insert(min(at, len(seq)), seq[at % len(seq)])
    return space, seq


class TestGoodIndex:
    """The incremental certificate against the loop that asks `includes`
    of each open against the union of all its predecessors."""

    @given(good_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        space, seq = case
        assert (find_good_index(space, seq, GOOD_BOUND)
                == good_index_brute(space, seq, GOOD_BOUND))

    @given(good_case(up_only=True), st.integers(0, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ill_typed_point_is_rejected_when_read(self, case, at, data):
        # An ill-typed point in an up-closure that the pass reads raises,
        # even beside known points, past which no comparison needs to look.
        space, seq = case
        prefix = [u for u in seq[:at] if w("") not in _as_points(u)]
        assume(good_index_brute(space, prefix, GOOD_BOUND) is None)
        bad = data.draw(st.sampled_from(
            [w("c"), w("ac")] if space == WAB
            else [NatVal(1), Pair(NatVal(0), Atom("a"))]))
        known = tuple(p for u in prefix for p in _as_points(u))
        last = UpClosure(known[-2:] + (bad,))
        with pytest.raises(SpaceError):
            find_good_index(space, prefix + [last] + seq[at:], GOOD_BOUND)

    # A leaf of another shape, and an open that normalises to the empty
    # open, whose points say nothing of its ill-formed part.
    @pytest.mark.parametrize("u", [
        BaseOpen(frozenset("c")),
        Intersect((Empty(), BaseOpen(frozenset("c"))))], ids=["leaf", "dropped"])
    def test_open_read_is_checked_whole(self, u):
        with pytest.raises(SetError, match="needs a finite base"):
            find_good_index(WAB, [UpClosure((w("a"),)), u])


def _as_points(u):
    if isinstance(u, UpClosure):
        return u.points
    return tuple(p for part in u.parts for p in part.points)


class TestClosures:
    def test_closure_point_extent_is_down_set(self):
        c = closure_point(WAB, w("ab"))
        assert c == OrdProduct((AtMostOne(DownClosure((Atom("a"),))),
                                AtMostOne(DownClosure((Atom("b"),)))))
        got = set(extent(WAB, c, 2))
        assert got == {w(""), w("a"), w("b"), w("ab")}

    def test_closure_extent_equals_higman_down_set(self):
        for word in enumerate_points(WAB, 3):
            c = closure_point(WAB, word)
            got = set(extent(WAB, c, 3))
            want = {u for u in enumerate_points(WAB, 3)
                    if point_leq(WAB, u, word)}
            assert got == want, word

    def test_closure_of_empty_word(self):
        c = closure_point(WAB, w(""))
        assert set(extent(WAB, c, 3)) == {w("")}

    def test_up_closure_of_empty_word_is_whole(self):
        assert up_closure(WAB, [w("")]) == Whole()

    def test_up_closure_minimizes_basis(self):
        u = up_closure(WAB, [w("ab"), w("aab"), w("ba")])
        assert isinstance(u, UpClosure)
        assert set(u.points) == {w("ab"), w("ba")}


class TestRestrictAndSpecialisation:
    def test_restrict_on_naturals(self):
        t = TopologyDesc(Nat(), (Empty(), UpClosure((NatVal(1),))))
        h = DownClosure((NatVal(3),))
        rt = restrict(t, h, bound=10)
        exts = {extent(Nat(), u, 10) for u in rt.effective_subbasis()}
        exts.discard(())
        assert exts == {tuple(NatVal(i) for i in (1, 2, 3))}

    def test_restrict_whole_is_identity(self):
        t = TopologyDesc(Nat(), (UpClosure((NatVal(1),)),))
        assert restrict(t, WholeC()) is t

    def test_restrict_trivial_topology_has_three_extents(self):
        t = TopologyDesc(Nat(), (Empty(), Whole()))
        rt = restrict(t, DownClosure((NatVal(2),)), bound=6)
        exts = {extent(Nat(), u, 6) for u in rt.effective_subbasis()}
        exts |= {tuple(NatVal(i) for i in range(7))}  # the whole space
        assert len(exts) <= 3

    def test_restrict_requires_closed_carrier(self):
        from noethkit.sets import CarrierOpen
        t = TopologyDesc(Nat(), (UpClosure((NatVal(1),)),))
        # Extent {0, 4, 5, ...}: neither a complement of a generated open nor
        # downward closed, so it is rejected as a carrier.
        not_closed = ComplementOf(Intersect((
            UpClosure((NatVal(1),)),
            CarrierOpen(DownClosure((NatVal(3),))))))
        with pytest.raises(Exception):
            restrict(t, not_closed, bound=10)

    def test_spec_leq_alexandroff_is_the_order(self):
        t = TopologyDesc(Nat(), tuple(UpClosure((NatVal(k),)) for k in range(8)))
        assert spec_leq(t, NatVal(2), NatVal(5))
        assert not spec_leq(t, NatVal(5), NatVal(2))

    def test_spec_leq_rejects_an_ill_typed_point(self):
        t = TopologyDesc(Nat(), (UpClosure((NatVal(1),)),))
        for x, y in ((Atom("a"), NatVal(2)), (NatVal(2), Atom("a"))):
            with pytest.raises(SetError):
                spec_leq(t, x, y)

    def test_restricted_formula_on_random_posets(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d", "e", "f"]
        for trial in range(20):
            k = rng.randrange(2, 7)
            elems = names[:k]
            pairs = [(x, y) for x in elems for y in elems
                     if x != y and rng.random() < 0.3]
            base = finite_qo(elems, pairs)
            t = TopologyDesc(base, tuple(
                UpClosure((Atom(x),)) for x in elems))
            down = [x for x in elems if rng.random() < 0.5]
            h = DownClosure(tuple(Atom(x) for x in base.down_set(down))) \
                if down else EmptyC()
            for x, y in itertools.product(elems, repeat=2):
                px, py = Atom(x), Atom(y)
                got = spec_leq_restricted(t, h, px, py, bound=3)
                want = (not member_closed(base, px, h)) or (
                    spec_leq(t, px, py) and member_closed(base, py, h))
                assert got == want, (trial, x, y)

    def test_outside_carrier_below_everything(self):
        base = discrete("a", "b")
        t = TopologyDesc(base, (UpClosure((Atom("a"),)), UpClosure((Atom("b"),))))
        h = DownClosure((Atom("b"),))
        for y in ("a", "b"):
            assert spec_leq_restricted(t, h, Atom("a"), Atom(y), bound=2)


class TestComplement:
    def test_whole_space_product_complements_to_empty(self):
        p = OrdProduct((Power(WholeC(), parse_ordinal("w*2")),))
        assert complement_ordinal_product(OWAB, p) == Empty()

    def test_empty_product_complement(self):
        u = complement_ordinal_product(OWAB, OrdProduct(()))
        got = set(extent(OWAB, u, 2))
        nonempty = {p for p in enumerate_points(OWAB, 2) if p.segments}
        assert got == nonempty

    def test_single_power_complement_extent(self):
        space = OrdWords(AB, OMEGA)
        p = OrdProduct((Power(DownClosure((Atom("a"),)), OMEGA),))
        u = complement_ordinal_product(space, p)
        got = set(extent(space, u, 3))
        want = {x for x in enumerate_points(space, 3)
                if any(l == Atom("b") for l, _ in x.segments)}
        assert got == want

    def test_random_products_partition_universe(self):
        rng = random.Random(11)
        exponents = [ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA,
                     add(OMEGA, ONE)]
        closeds = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),)),
                   WholeC()]
        oracle = oracle_for(OWAB, 4)
        for _ in range(30):
            atoms = []
            for _ in range(rng.randrange(0, 4)):
                if rng.random() < 0.4:
                    atoms.append(AtMostOne(rng.choice(closeds)))
                else:
                    atoms.append(Power(rng.choice(closeds), rng.choice(exponents)))
            p = OrdProduct(tuple(atoms))
            u = complement_ordinal_product(OWAB, p)
            inside = oracle.extent(p)
            outside = oracle.extent(u)
            assert inside | outside == frozenset(oracle.universe), p
            assert not (inside & outside), p

    def test_concat_up_complement_partitions_universe(self):
        # A side of c is not upward closed, so membership and the extent of
        # c differ on (word b a b) (ROADMAP item 1); the complement and the
        # carrier read the extent.
        c = ConcatUp(PrefixConcat(UA, Whole()), WordOpen((UB,)))
        oracle = oracle_for(WAB, 3)
        inside, outside = oracle.extent(c), oracle.extent(ComplementOf(c))
        assert inside | outside == frozenset(oracle.universe)
        assert not (inside & outside)
        assert oracle.extent(CarrierOpen(ComplementOf(c))) == outside


class TestRTimesRewrite:
    def test_triangle_limit_case(self):
        f = DownClosure((Atom("a"),))
        u = Triangle(OMEGA, WordOpen((UB,)))
        out = rtimes_rewrite(OWAB, f, u)
        assert out == ConcatUp(WordOpen((BaseOpen(frozenset("b")),)),
                               Triangle(OMEGA, WordOpen((UB,))))

    def test_triangle_successor_case(self):
        f = DownClosure((Atom("a"),))
        beta = parse_ordinal("w + 1")
        out = rtimes_rewrite(OWAB, f, Triangle(beta, WordOpen((UB,))))
        assert isinstance(out, ConcatUp)
        assert out.right == Triangle(OMEGA, WordOpen((UB,)))

    def test_extent_equality_of_rewrites(self):
        oracle = oracle_for(OWAB, 4)
        closeds = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),))]
        shapes = [
            WordOpen((UA,)),
            WordOpen((UB,)),
            WordOpen((UA, UB)),
            ConcatUp(WordOpen((UA,)), WordOpen((UB, UB))),
            Triangle(ONE, WordOpen((UA,))),
            Triangle(ONE, WordOpen((UB,))),
            Triangle(Ordinal.from_int(2), WordOpen((UB,))),
            Triangle(OMEGA, WordOpen((UA,))),
            ConcatUp(Triangle(ONE, WordOpen((UA,))), WordOpen((UB,))),
        ]
        for f, u in itertools.product(closeds, shapes):
            rewript = rtimes_rewrite(OWAB, f, u)
            assert oracle.extent(rewript) == oracle.extent(RTimes(f, u)), (f, u)

    def test_unsupported_shape_raises(self):
        with pytest.raises(RewriteShapeError):
            rtimes_rewrite(OWAB, DownClosure((Atom("a"),)), UpClosure((OrdWord(()),)))


class TestExtent:
    def test_single_letter_extent(self):
        assert extent(WAB, WordOpen((UA,)), 1) == (w("a"),)

    def test_whole_extent_at_bound_one(self):
        assert extent(WAB, Whole(), 1) == (w(""), w("a"), w("b"))

    def test_negative_bound_is_an_error(self):
        # Its universe would be empty, so every extent would read empty.
        with pytest.raises(SetError, match="at least 0, got -1"):
            extent(WAB, Whole(), -1)
        assert extent(WAB, Whole(), 0) == (w(""),)

    def test_pattern_count_at_bound_three(self):
        got = extent(WAB, WordOpen((UA, UB)), 3)
        assert set(got) == {w("ab"), w("aab"), w("abb"), w("bab"), w("aba")}
        assert len(got) == 5

    def test_member_agrees_with_extent_on_corpus(self):
        corpus = [
            WordOpen((UA,)),
            Union((WordOpen((UA, UB)), UpClosure((w("bb"),)))),
            Intersect((WordOpen((UA,)), WordOpen((UB,)))),
            ConcatUp(WordOpen((UA,)), WordOpen((UB,))),
            RTimes(DownClosure((Atom("a"),)), WordOpen((UB,))),
            PrefixConcat(UA, Whole()),
        ]
        for expr in corpus:
            for bound in (2, 3, 4):
                ext = set(extent(WAB, expr, bound))
                for p in enumerate_points(WAB, bound):
                    assert (p in ext) == member_open(WAB, p, expr)


class TestNormalize:
    def test_union_flattening(self):
        u = Union((Empty(), Union((WordOpen((UA,)), Empty())), WordOpen((UA,))))
        assert normalize_open(u) == WordOpen((UA,))

    def test_concat_up_merges_word_opens(self):
        u = ConcatUp(WordOpen((UA,)), WordOpen((UB,)))
        assert normalize_open(u) == WordOpen((UA, UB))

    def test_concat_up_unit(self):
        u = ConcatUp(Whole(), WordOpen((UA,)))
        assert normalize_open(u) == WordOpen((UA,))

    def test_triangle_zero_is_whole(self):
        assert normalize_open(Triangle(Ordinal(), WordOpen((UA,)))) == Whole()

    def test_base_complement(self):
        assert base_complement(AB, DownClosure((Atom("a"),))) == UB


@st.composite
def generator_families(draw):
    """A small universe, a generator family with repeated members, and a
    second family that often generates the same lattice."""
    n = draw(st.integers(1, 5))
    universe = frozenset(range(n))
    subsets = st.frozensets(st.integers(0, n - 1))
    gens_a = draw(st.lists(subsets, max_size=5))
    if gens_a:
        gens_a += draw(st.lists(st.sampled_from(gens_a), max_size=3))
    lattice_a = sorted(lattice_brute(gens_a, universe), key=sorted)
    gens_b = draw(st.one_of(
        st.lists(subsets, max_size=5),
        st.lists(st.sampled_from(lattice_a), max_size=6)))
    if draw(st.booleans()):
        gens_b += gens_a
    return universe, gens_a, gens_b


class TestGeneratedLattice:
    @settings(max_examples=300, deadline=None)
    @given(generator_families())
    def test_membership_matches_brute_force(self, case):
        universe, gens, _ = case
        lattice = lattice_brute(gens, universe)
        for r in range(len(universe) + 1):
            for target in itertools.combinations(sorted(universe), r):
                target = frozenset(target)
                assert in_generated_lattice(target, gens, universe) == \
                    (target in lattice), (target, gens)

    @settings(max_examples=300, deadline=None)
    @given(generator_families())
    def test_comparison_matches_brute_force(self, case):
        universe, gens_a, gens_b = case
        want = lattice_brute(gens_a, universe) == lattice_brute(gens_b, universe)
        assert same_generated_lattice(gens_a, gens_b, universe) == want
        assert same_generated_lattice(gens_b, gens_a, universe) == want


def _mask(points) -> int:
    return sum(1 << x for x in points)


class TestMeetTable:
    """The lattice kernel on masks over universes {0, ..., n-1}."""

    @settings(max_examples=300, deadline=None)
    @given(generator_families())
    def test_contains_matches_brute_force(self, case):
        universe, gens, _ = case
        full = _mask(universe)
        table = meet_table([_mask(g) for g in gens], full)
        lattice = {_mask(s) for s in lattice_brute(gens, universe)}
        for target in range(full + 1):
            assert lattice_contains(table, target) == (target in lattice), \
                (target, gens)

    @settings(max_examples=300, deadline=None)
    @given(generator_families())
    def test_equal_tables_iff_equal_lattices(self, case):
        universe, gens_a, gens_b = case
        full = _mask(universe)
        want = lattice_brute(gens_a, universe) == lattice_brute(gens_b, universe)
        got = (meet_table([_mask(g) for g in gens_a], full)
               == meet_table([_mask(g) for g in gens_b], full))
        assert got == want


# Opens of the two-letter word spaces.  ConcatUp is the upward closure of
# the concatenation, which membership's split search matches only when both
# sides are upward closed, so its sides are drawn from the upward-closed
# family; the other constructors take any open.
LETTERS = st.sampled_from([UA, UB, BaseOpen(frozenset("ab"))])
BETAS = st.sampled_from([ONE, Ordinal.from_int(2), OMEGA])
ATOMS = st.sampled_from([Atom("a"), Atom("b")])
EMPTY_OR_WHOLE = st.sampled_from([Empty(), Whole()])


def _nary(kids, *classes, max_size=3):
    """A constructor of `classes` over a tuple of kids, possibly empty."""
    return st.builds(lambda cls, parts: cls(tuple(parts)),
                     st.sampled_from(classes), st.lists(kids, max_size=max_size))


# Closed sets of the base (over a discrete base every subset is closed, and
# open), opens of the base, and ordinal products of the closed sets.
LETTER_CLOSEDS = st.recursive(
    st.one_of(st.lists(ATOMS, max_size=2).map(lambda ps: DownClosure(tuple(ps))),
              st.sampled_from([EmptyC(), WholeC()]), LETTERS.map(ComplementOf)),
    lambda kids: _nary(kids, UnionC, IntersectC, max_size=2), max_leaves=3)
BASE_OPENS = st.recursive(
    st.one_of(LETTERS, st.lists(ATOMS, max_size=2).map(
        lambda ps: UpClosure(tuple(ps))), LETTER_CLOSEDS.map(CarrierOpen)),
    lambda kids: _nary(kids, Union, Intersect), max_leaves=3)
PRODUCTS = st.lists(st.one_of(LETTER_CLOSEDS.map(AtMostOne),
                              st.builds(Power, LETTER_CLOSEDS, BETAS)),
                    max_size=3).map(lambda atoms: OrdProduct(tuple(atoms)))


def _word_closeds(kids):
    """Closed sets of words: ordinal products, complements of the opens
    `kids`, and unions and intersections of those."""
    leaves = st.one_of(PRODUCTS, kids.map(ComplementOf))
    return st.one_of(leaves, _nary(leaves, UnionC, IntersectC, max_size=2))


def _combinators(kids):
    return [
        st.tuples(BETAS, kids).map(lambda bu: Triangle(*bu)),
        st.lists(kids, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
        st.lists(kids, min_size=2, max_size=3).map(
            lambda ps: Intersect(tuple(ps))),
        kids.map(UpSubstructure),
    ]


UP_WORD_OPENS = st.recursive(
    st.one_of(st.lists(LETTERS, min_size=1, max_size=3).map(
        lambda ps: WordOpen(tuple(ps))), EMPTY_OR_WHOLE),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda lr: ConcatUp(*lr)),
        st.builds(RTimes, LETTER_CLOSEDS, kids),
        *_combinators(kids)),
    max_leaves=5)
WORD_OPENS = st.recursive(
    UP_WORD_OPENS,
    lambda kids: st.one_of(
        st.tuples(LETTERS, kids).map(lambda lu: PrefixConcat(*lu)),
        _word_closeds(kids).map(CarrierOpen),
        *_combinators(kids)),
    max_leaves=4)
TREE_OPENS = st.recursive(
    st.tuples(LETTERS, st.just(Whole())).map(lambda rc: TreeOpen(*rc)),
    lambda kids: st.one_of(
        st.tuples(LETTERS, st.lists(kids, min_size=1, max_size=2)).map(
            lambda rc: TreeOpen(rc[0], WordOpen(tuple(rc[1])))),
        st.lists(kids, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
        st.lists(kids, min_size=2, max_size=3).map(
            lambda ps: Intersect(tuple(ps))),
        kids.map(UpSubstructure)),
    max_leaves=4)


NAT3 = Product(Nat(), Product(Nat(), Nat()))


def nat3(x, y, z):
    return Pair(NatVal(x), Pair(NatVal(y), NatVal(z)))


FINITE_RUNS = st.lists(
    st.tuples(st.sampled_from([Atom("a"), Atom("b")]),
              st.sampled_from([ONE, Ordinal.from_int(2),
                               Ordinal.from_int(3)])),
    max_size=3)
TREE_POINTS = st.recursive(
    st.sampled_from([Atom("a"), Atom("b")]).map(lambda a: TreeNode(a, ())),
    lambda kids: st.tuples(st.sampled_from([Atom("a"), Atom("b")]),
                           st.lists(kids, min_size=1, max_size=2)).map(
        lambda lc: TreeNode(lc[0], tuple(lc[1]))),
    max_leaves=4)
OTAB = OrdTrees(AB, parse_ordinal("w*2"))
ORD_TREE_POINTS = st.recursive(
    st.sampled_from([Atom("a"), Atom("b")]).map(
        lambda a: OrdTreeNode(a, OrdWord(()))),
    lambda kids: st.tuples(
        st.sampled_from([Atom("a"), Atom("b")]),
        st.lists(st.tuples(kids, st.sampled_from(
            [ONE, Ordinal.from_int(2), OMEGA])), min_size=1, max_size=2)).map(
        lambda lc: OrdTreeNode(lc[0], ord_word(lc[1]))),
    max_leaves=4).filter(lambda t: typecheck(OTAB, t))
SUM_WN = Sum(WAB, Nat())
# Points inside the bound of their space and beyond it; over ordinal words
# and ordinal trees also points with an infinite run, which the universe
# never holds.
CLOSURE_POINTS = {
    WAB: st.text("ab", max_size=7).map(w),
    OWAB: st.one_of(FINITE_RUNS.map(ord_word), st.sampled_from([
        ow(("a", OMEGA)), ow(("b", ONE), ("a", OMEGA)),
        ow(("a", OMEGA), ("b", Ordinal.from_int(2)))])),
    Trees(AB): TREE_POINTS,
    NAT3: st.builds(nat3, *[st.integers(0, 6)] * 3),
    OTAB: ORD_TREE_POINTS,
    SUM_WN: st.one_of(st.text("ab", max_size=6).map(lambda t: InL(w(t))),
                      st.integers(0, 6).map(lambda n: InR(NatVal(n)))),
}


@st.composite
def closure_points(draw, space):
    """A tuple of points, possibly empty, with some drawn twice."""
    points = draw(st.lists(CLOSURE_POINTS[space], max_size=3))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
    return tuple(points)


def closure_opens(space):
    """Up-closures as leaves and under unions and intersections (and, over
    words, under the other word combinators)."""
    if space in (WAB, OWAB):
        combine = _combinators
    else:
        def combine(kids):
            return [st.lists(kids, min_size=2, max_size=3).map(
                        lambda ps: Union(tuple(ps))),
                    st.lists(kids, min_size=2, max_size=3).map(
                        lambda ps: Intersect(tuple(ps)))]
    return st.recursive(closure_points(space).map(UpClosure),
                        lambda kids: st.one_of(*combine(kids)), max_leaves=4)


NATS = st.integers(0, 5).map(NatVal)
NAT_OPENS = st.recursive(
    st.one_of(EMPTY_OR_WHOLE,
              st.lists(NATS, max_size=2).map(lambda ps: UpClosure(tuple(ps))),
              st.lists(NATS, max_size=2).map(
                  lambda ps: CarrierOpen(DownClosure(tuple(ps))))),
    lambda kids: _nary(kids, Union, Intersect), max_leaves=3)


def _with_complements(leaves):
    """Unions, intersections and complement carriers over `leaves`."""
    return st.recursive(leaves, lambda kids: st.one_of(
        _nary(kids, Union, Intersect),
        kids.map(lambda u: CarrierOpen(ComplementOf(u)))), max_leaves=4)


NAT2_POINTS = st.builds(nat2, st.integers(0, 5), st.integers(0, 5))
PAIR_OPENS = _with_complements(st.one_of(
    EMPTY_OR_WHOLE, st.builds(Rect, NAT_OPENS, NAT_OPENS),
    st.lists(NAT2_POINTS, max_size=2).map(lambda ps: UpClosure(tuple(ps)))))
SUM_POINTS = st.one_of(st.text("ab", max_size=5).map(lambda t: InL(w(t))),
                       st.integers(0, 5).map(lambda n: InR(NatVal(n))))


def _extent_by_membership(oracle, u) -> frozenset:
    return frozenset(p for p in oracle.universe
                     if member_open(oracle.space, p, u))


def _tree_opens(space, points):
    """Subtree opens over a tree space and substructure closures of them.
    The children opens are letter patterns of one and two parts over
    nested tree opens, prefix cylinders whose first tree lies in one,
    up-closures of the forests of `points` and suffix triangles."""
    roots = st.one_of(LETTERS, EMPTY_OR_WHOLE)
    forests = st.lists(points, max_size=2).map(
        lambda ts: UpClosure(tuple(space.forest(t) for t in ts)))
    leaves = st.tuples(roots, st.one_of(EMPTY_OR_WHOLE, forests)).map(
        lambda rc: TreeOpen(*rc))

    def extend(kids):
        patterns = st.lists(kids, min_size=1, max_size=2).map(
            lambda ps: WordOpen(tuple(ps)))
        plain = st.one_of(EMPTY_OR_WHOLE, forests, patterns)
        children = st.one_of(
            patterns, st.tuples(kids, plain).map(lambda lr: PrefixConcat(*lr)),
            st.tuples(BETAS, plain).map(lambda bu: Triangle(*bu)), forests)
        return st.one_of(
            st.tuples(roots, children).map(lambda rc: TreeOpen(*rc)),
            st.lists(kids, min_size=2, max_size=3).map(
                lambda ps: Union(tuple(ps))),
            st.lists(kids, min_size=2, max_size=3).map(
                lambda ps: Intersect(tuple(ps))),
            kids.map(UpSubstructure))

    return st.recursive(leaves, extend, max_leaves=4)


SUBSTRUCTURE_OPENS = {Trees(AB): _tree_opens(Trees(AB), TREE_POINTS),
                      OTAB: _tree_opens(OTAB, ORD_TREE_POINTS)}

# The base a <= b, where (base a) is no open and a part need not be upward
# closed.
QAB = finite_qo("ab", [("a", "b")])


def _pattern_opens(up_parts, parts):
    """Letter patterns over `parts` and prefix cylinders with letters in
    `parts`, under the word combinators.  Concatenations join patterns over
    the upward-closed `up_parts` only: membership's split search matches
    the glue rule only on upward-closed sides (ROADMAP item 1)."""
    def patterns(ps):
        return st.lists(ps, max_size=3).map(lambda ps: WordOpen(tuple(ps)))

    up = st.recursive(patterns(up_parts), lambda kids: st.one_of(
        st.builds(ConcatUp, kids, kids), _nary(kids, Union, Intersect)),
        max_leaves=3)
    return st.recursive(
        st.one_of(up, patterns(parts)),
        lambda kids: st.one_of(st.builds(PrefixConcat, parts, kids),
                               *_combinators(kids)),
        max_leaves=4)


_AB_PARTS = st.one_of(BASE_OPENS, EMPTY_OR_WHOLE)
_QAB_UP_PARTS = st.recursive(
    st.sampled_from([UpClosure((Atom("a"),)), UpClosure((Atom("b"),)), UB,
                     BaseOpen(frozenset("ab")), Empty(), Whole()]),
    lambda kids: _nary(kids, Union, Intersect), max_leaves=3)
_QAB_PARTS = st.recursive(
    st.one_of(_QAB_UP_PARTS, st.sampled_from([
        CarrierOpen(DownClosure((Atom("a"),))), CarrierOpen(ComplementOf(UB))])),
    lambda kids: _nary(kids, Union, Intersect), max_leaves=3)
PATTERN_OPENS = {AB: _pattern_opens(_AB_PARTS, _AB_PARTS),
                 QAB: _pattern_opens(_QAB_UP_PARTS, _QAB_PARTS)}


@pytest.mark.parametrize("bound", [3, 4, 5])
@pytest.mark.parametrize("space", [WAB, OWAB, Trees(AB), OTAB],
                         ids=["words", "ordwords", "trees", "ordtrees"])
def test_universe_holds_substructures_and_labels(space, bound):
    """The premise of the substructure rows and of the subtree open's root
    test: the universe holds every substructure of its points, and the
    base universe at the same bound the label of every tree."""
    oracle = oracle_for(space, bound)
    assert all(q in oracle.index for p in oracle.universe
               for q in space.substructures(p))
    if isinstance(space, (Trees, OrdTrees)):
        labels = oracle_for(space.base, bound).index
        assert all(t.label in labels for t in oracle.universe)


class TestMaskOracle:
    """The bitmask extent oracle against per-point membership."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 5), WORD_OPENS)
    def test_word_extents_match_membership(self, bound, u):
        oracle = oracle_for(WAB, bound)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @settings(max_examples=100, deadline=None)
    @given(WORD_OPENS)
    def test_ordinal_word_extents_match_membership(self, u):
        # The universe holds finite runs only, where concatenation
        # membership is exact.
        oracle = oracle_for(OWAB, 4)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @settings(max_examples=100, deadline=None)
    @given(TREE_OPENS)
    def test_tree_extents_match_membership(self, u):
        oracle = oracle_for(Trees(AB), 3)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @pytest.mark.parametrize("space, bound", [
        (Trees(AB), 3), (Trees(AB), 4), (OTAB, 3), (OTAB, 4)],
        ids=["trees-3", "trees-4", "ordtrees-3", "ordtrees-4"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_substructure_rules_match_membership_over_trees(self, space,
                                                            bound, data):
        oracle = oracle_for(space, bound)
        u = data.draw(SUBSTRUCTURE_OPENS[space])
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @pytest.mark.parametrize("bound", [3, 4, 5])
    @pytest.mark.parametrize("space", [WAB, OWAB], ids=["words", "ordwords"])
    @settings(max_examples=40, deadline=None)
    @given(WORD_OPENS)
    def test_substructure_closures_match_membership_over_words(
            self, space, bound, inner):
        oracle = oracle_for(space, bound)
        u = UpSubstructure(inner)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @pytest.mark.parametrize("space, bound", [
        (WAB, 3), (WAB, 4), (WAB, 5), (OWAB, 4), (Trees(AB), 3), (NAT3, 3),
        (NAT3, 4), (OTAB, 3), (SUM_WN, 3)],
        ids=["words-3", "words-4", "words-5", "ordwords-4", "trees-3",
             "nat3-3", "nat3-4", "ordtrees-3", "sum-3"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closure_extents_match_membership(self, space, bound, data):
        oracle = oracle_for(space, bound)
        u = data.draw(closure_opens(space))
        assert oracle.extent(u) == _extent_by_membership(oracle, u)
        down = DownClosure(data.draw(closure_points(space)))
        assert oracle.extent(down) == frozenset(
            p for p in oracle.universe if member_closed(space, p, down))

    @pytest.mark.parametrize("base", [AB, QAB], ids=["fin", "qo"])
    @pytest.mark.parametrize("ordinal", [False, True],
                             ids=["words", "ordwords"])
    @settings(max_examples=60, deadline=None)
    @given(bound=st.integers(3, 4), data=st.data())
    def test_pattern_and_cylinder_extents_match_membership(
            self, base, ordinal, bound, data):
        # Parts and letters beyond (base ...), and over a <= b parts that
        # are not upward closed.
        space = OrdWords(base, parse_ordinal("w*2")) if ordinal else Words(base)
        oracle = oracle_for(space, bound)
        u = data.draw(PATTERN_OPENS[base])
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @pytest.mark.parametrize("letters", [UB, UpClosure((Atom("b"),))],
                             ids=["base", "up"])
    @pytest.mark.parametrize("space", [WAB, OWAB], ids=["words", "ordwords"])
    def test_cylinder_reads_the_extent_of_its_tail(self, space, letters):
        # The concatenation's left side is not upward closed, so its extent,
        # the glue rule's up(LR), holds (word b a b), which its membership
        # leaves out (ROADMAP item 1, defect 2).  A cylinder reads that
        # extent on both word spaces, whatever open its letters are.
        oracle = oracle_for(space, 4)
        tail = ConcatUp(PrefixConcat(UA, Whole()), WordOpen((UB,)))
        rest = oracle.extent(tail)
        want = {p for p in oracle.universe
                if (step := space.uncons(p)) is not None
                and step[0] == Atom("b") and step[1] in rest}
        assert oracle.extent(PrefixConcat(letters, tail)) == want
        assert len(want) == 5

    @settings(max_examples=100, deadline=None)
    @given(BASE_OPENS)
    def test_base_extents_match_membership(self, u):
        oracle = oracle_for(AB, 1)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @pytest.mark.parametrize("space, bound, opens", [
        (NAT2, 4, PAIR_OPENS),
        (SUM_WN, 3, _with_complements(st.builds(SumOpen, WORD_OPENS,
                                                NAT_OPENS)))],
        ids=["nat2-4", "sum-3"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_product_and_sum_extents_match_membership(self, space, bound,
                                                      opens, data):
        oracle = oracle_for(space, bound)
        u = data.draw(opens)
        assert oracle.extent(u) == _extent_by_membership(oracle, u)

    @settings(max_examples=100, deadline=None)
    @given(_word_closeds(WORD_OPENS))
    def test_closed_extents_match_membership(self, c):
        oracle = oracle_for(WAB, 4)
        assert oracle.extent(c) == frozenset(
            p for p in oracle.universe if member_closed(WAB, p, c))

    def test_word_open_with_parts_not_upward_closed(self):
        # Over words of words the part "starts with a" is not upward closed,
        # so <P,P> is not the upward closure of <P> <P>: (word (word b a)
        # (word a)) is above (word (word a) (word a)) but has only one
        # letter in P.  A (base ...) part must be upward closed: over a <= b,
        # (base a) is a domain error.
        space = Words(WAB)
        starts_a = PrefixConcat(UA, Whole())
        for u in (WordOpen((starts_a, starts_a)),
                  WordOpen((starts_a, Whole(), starts_a))):
            oracle = oracle_for(space, 4)
            assert oracle.extent(u) == _extent_by_membership(oracle, u)
        with pytest.raises(SetError, match="not upward closed"):
            oracle_for(Words(finite_qo("ab", [("a", "b")])), 4).extent(
                WordOpen((UA, UA)))

    def test_extent_list_in_enumeration_order(self):
        oracle = oracle_for(WAB, 4)
        u = WordOpen((UA, UB))
        got = oracle.extent_list(u)
        assert got == tuple(p for p in oracle.universe
                            if member_open(WAB, p, u))
        assert oracle.extent(u) == frozenset(got)

    @settings(max_examples=60, deadline=None)
    @given(WORD_OPENS)
    def test_word_extents_match_membership_at_the_prefix_bound(self, u):
        # Bound 6 (127 words) is the prefix bound of the bench `restrict`
        # workload, where PrefixConcat reads its prepend rows.
        oracle = oracle_for(WAB, 6)
        assert len(oracle.universe) == 127
        assert oracle.extent(u) == _extent_by_membership(oracle, u)


# Points of (ordwords (fin a b) w*2) with runs of length 1, 2 and w.
OMEGA_RUN_POINTS = st.lists(
    st.tuples(ATOMS, st.sampled_from([ONE, Ordinal.from_int(2), OMEGA])),
    max_size=3).map(ord_word).filter(lambda p: typecheck(OWAB, p))


@pytest.mark.parametrize("space, points",
                         [(WAB, st.text("ab", max_size=5).map(w)),
                          (OWAB, OMEGA_RUN_POINTS)],
                         ids=["words", "ordwords"])
@given(data=st.data())
def test_uncons_undoes_cons(space, points, data):
    letter, p = data.draw(ATOMS), data.draw(points)
    assert space.uncons(space.cons(letter, p)) == (letter, p)


@pytest.mark.parametrize("bound", [3, 4])
@pytest.mark.parametrize("space", [WAB, OWAB], ids=["words", "ordwords"])
def test_glue_row_holds_each_concatenation(space, bound):
    """Row j of the glue relation of point i is the bit of the word i.j,
    or 0 when it lies outside the universe."""
    oracle = oracle_for(space, bound)
    for i, u in enumerate(oracle.universe):
        row = oracle._glue_rows(i)
        for j, v in enumerate(oracle.universe):
            if space == WAB:
                glued = Word(u.letters + v.letters)
            else:
                glued = ord_word(u.segments + v.segments)
            k = oracle.index.get(glued)
            assert row[j] == (0 if k is None else 1 << k), (u, v)


def _normal_word_opens(points, concat: bool):
    """Every open constructor over a word space, with Empty, Whole and
    up-closures of `points` among the leaves and the letters, and zero
    exponents.  The sides of a concatenation, when `concat`, are upward
    closed, as membership's split search needs."""
    letters = st.one_of(BASE_OPENS, EMPTY_OR_WHOLE)
    betas = st.sampled_from([Ordinal(), ONE, Ordinal.from_int(2), OMEGA])
    leaves = st.one_of(
        EMPTY_OR_WHOLE,
        st.lists(points, max_size=2).map(lambda ps: UpClosure(tuple(ps))),
        st.lists(letters, max_size=3).map(lambda ps: WordOpen(tuple(ps))))

    def shared(kids):
        return [st.builds(Triangle, betas, kids), kids.map(UpSubstructure),
                _nary(kids, Union, Intersect)]

    def up(kids):
        guards = st.one_of(st.sampled_from([EmptyC(), WholeC()]),
                           LETTER_CLOSEDS)
        shapes = shared(kids) + [st.builds(RTimes, guards, kids)]
        if concat:
            shapes.append(st.builds(ConcatUp, kids, kids))
        return st.one_of(*shapes)

    return st.recursive(
        st.recursive(leaves, up, max_leaves=4),
        lambda kids: st.one_of(st.builds(PrefixConcat, letters, kids),
                               _word_closeds(kids).map(CarrierOpen),
                               *shared(kids)),
        max_leaves=3)


WORD_POINTS = st.text("ab", max_size=6).map(w)
TREE_NORMAL_OPENS = _with_complements(st.recursive(
    st.one_of(EMPTY_OR_WHOLE,
              st.lists(TREE_POINTS, max_size=2).map(
                  lambda ps: UpClosure(tuple(ps))),
              st.builds(TreeOpen, BASE_OPENS, st.sampled_from(
                  [Empty(), Whole(), WordOpen(())]))),
    lambda kids: st.one_of(
        st.builds(TreeOpen, st.one_of(BASE_OPENS, EMPTY_OR_WHOLE),
                  st.lists(kids, max_size=2).map(
                      lambda ps: WordOpen(tuple(ps)))),
        kids.map(UpSubstructure), _nary(kids, Union, Intersect)),
    max_leaves=4))
# Space, opens and points of the normal-form property.  ConcatUp is left
# out over ordinal words, where its membership misses splits inside an
# infinite run (see test_concat_up_membership_on_an_omega_run).
NORMAL_CASES = {
    "words": (WAB, _normal_word_opens(WORD_POINTS, True), WORD_POINTS),
    "ordwords": (OWAB, _normal_word_opens(OMEGA_RUN_POINTS, False),
                 OMEGA_RUN_POINTS),
    "trees": (Trees(AB), TREE_NORMAL_OPENS, TREE_POINTS),
    "nat2": (NAT2, PAIR_OPENS, NAT2_POINTS),
    "sum": (SUM_WN, _with_complements(st.builds(
        SumOpen, _normal_word_opens(WORD_POINTS, True), NAT_OPENS)),
        SUM_POINTS),
}


class TestNormalForm:
    """`normalize_open` keeps membership, for every open constructor."""

    @pytest.mark.parametrize("case", sorted(NORMAL_CASES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normal_form_keeps_membership(self, case, data):
        space, opens, points = NORMAL_CASES[case]
        u = data.draw(opens)
        normal = normalize_open(u)
        for p in data.draw(st.lists(points, min_size=1, max_size=6)):
            assert member_open(space, p, u) == member_open(space, p, normal), \
                (p, normal)

    @pytest.mark.xfail(strict=True, reason="OrdWords.splits never splits a "
                       "run a^w as a^k . a^w, so concatenation membership "
                       "misses a split that its normal form finds")
    def test_concat_up_membership_on_an_omega_run(self):
        up_a = WordOpen((UpClosure((Atom("a"),)),))
        u = ConcatUp(up_a, up_a)
        p = ow(("a", OMEGA))
        assert member_open(OWAB, p, normalize_open(u))
        assert member_open(OWAB, p, u)


@st.composite
def shared_families(draw, opens, word_shapes: bool):
    """A family of opens that embed each other as subterm objects: drawn
    opens, then opens built over objects already in the family."""
    family = draw(st.lists(opens, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 5))):
        pick = st.sampled_from(list(family))
        shapes = [_nary(pick, Union, Intersect), pick.map(UpSubstructure)]
        if word_shapes:
            shapes += [st.builds(ConcatUp, pick, pick),
                       st.builds(Triangle, BETAS, pick),
                       st.builds(PrefixConcat, LETTERS, pick),
                       st.lists(pick, max_size=3).map(
                           lambda ps: WordOpen(tuple(ps)))]
        family.append(draw(st.one_of(*shapes)))
    return family


class TestFamilyFold:
    """`normalize_opens` is `normalize_open` on each open of a family."""

    @pytest.mark.parametrize("opens, word_shapes", [
        (_normal_word_opens(WORD_POINTS, True), True),
        (_normal_word_opens(OMEGA_RUN_POINTS, False), True),
        (TREE_NORMAL_OPENS, False)], ids=["words", "ordwords", "trees"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_family_fold_is_the_fold_of_each(self, opens, word_shapes, data):
        family = data.draw(shared_families(opens, word_shapes))
        assert normalize_opens(family) == [normalize_open(u) for u in family]

    def test_an_open_met_twice_is_one_answer(self):
        u = Union((WordOpen((UA,)), Empty()))
        got = normalize_opens([u, ConcatUp(u, u), u])
        assert got == [WordOpen((UA,)), WordOpen((UA, UA)), WordOpen((UA,))]
        assert got[0] is got[2]


# Ordinal words with an infinite run, each with its suffixes (the words
# past each position, and the empty word), listed by hand.
OMEGA_SUFFIXES = {
    ow(("a", OMEGA)): [ow(("a", OMEGA)), OrdWord(())],
    ow(("b", ONE), ("a", OMEGA)): [ow(("b", ONE), ("a", OMEGA)),
                                   ow(("a", OMEGA)), OrdWord(())],
    ow(("a", OMEGA), ("b", Ordinal.from_int(2))): [
        ow(("a", OMEGA), ("b", Ordinal.from_int(2))),
        ow(("b", Ordinal.from_int(2))), ow(("b", ONE)), OrdWord(())],
    ow(("a", add(OMEGA, ONE))): [ow(("a", add(OMEGA, ONE))), ow(("a", ONE)),
                                 OrdWord(())],
    ow(("a", Ordinal.from_int(2)), ("b", OMEGA)): [
        ow(("a", Ordinal.from_int(2)), ("b", OMEGA)),
        ow(("a", ONE), ("b", OMEGA)), ow(("b", OMEGA)), OrdWord(())],
}
A_FINITE = CarrierOpen(OrdProduct((Power(DownClosure((Atom("a"),)), OMEGA),)))


def _structured_word_opens(points):
    """Opens of a word space to ask PrefixConcat and UpSubstructure about:
    up-closed, not up-closed, and closed-as-open."""
    return [Whole(), Empty(), WordOpen((UA,)), WordOpen((UB, UA)),
            UpClosure(points), PrefixConcat(UB, Whole()),
            PrefixConcat(UA, WordOpen((UB,))), A_FINITE,
            PrefixConcat(UA, A_FINITE),
            PrefixConcat(UA, PrefixConcat(UB, Whole())),
            Triangle(ONE, WordOpen((UA,)))]


WORD_CASES = {
    "words": (WAB, list(enumerate_points(WAB, 4)),
              _structured_word_opens((w("ab"), w("bb")))),
    "ordwords": (OWAB, list(enumerate_points(OWAB, 4)) + list(OMEGA_SUFFIXES),
                 _structured_word_opens((ow(("a", OMEGA)),
                                         ow(("b", Ordinal.from_int(2)))))),
}


def _word_suffixes(p):
    if isinstance(p, Word):
        return word_suffixes(p)
    if p in OMEGA_SUFFIXES:
        return OMEGA_SUFFIXES[p]
    return [ord_word((x, ONE) for x in s.letters)
            for s in word_suffixes(ord_to_word(p))]


def _tail(p):
    return Word(p.letters[1:]) if isinstance(p, Word) else drop_first(p)


def _leaf(space, name):
    return (TreeNode(Atom(name), ()) if isinstance(space, Trees)
            else OrdTreeNode(Atom(name), OrdWord(())))


class TestStructuredMembership:
    """Membership of the constructors that read a word as a first letter
    and a tail, or as its suffixes, and a tree as its subtrees, against
    their definitions, on ordinal words with infinite runs too."""

    @pytest.mark.parametrize("case", sorted(WORD_CASES))
    def test_prefix_concat_matches_definition(self, case):
        space, points, opens = WORD_CASES[case]
        for letters, rest in itertools.product([UA, UB, Whole()], opens):
            expr = PrefixConcat(letters, rest)
            for p in points:
                first = p.letters[:1] if isinstance(p, Word) else [
                    x for x, _ in p.segments[:1]]
                want = bool(first) and member_open(AB, first[0], letters) \
                    and member_open(space, _tail(p), rest)
                assert member_open(space, p, expr) == want, (expr, p)

    def test_one_letter_off_an_omega_run(self):
        a_omega = ow(("a", OMEGA))
        assert drop_first(a_omega) == a_omega
        assert member_open(OWAB, a_omega,
                           PrefixConcat(UA, UpClosure((a_omega,))))
        assert not member_open(OWAB, a_omega, PrefixConcat(UA, A_FINITE))
        assert member_open(OWAB, ow(("a", add(OMEGA, ONE))),
                           PrefixConcat(UA, UpClosure((a_omega,))))

    @pytest.mark.parametrize("case", sorted(WORD_CASES))
    def test_up_substructure_matches_definition(self, case):
        space, points, opens = WORD_CASES[case]
        for inner in opens:
            expr = UpSubstructure(inner)
            for p in points:
                want = any(member_open(space, s, inner)
                           for s in _word_suffixes(p))
                assert member_open(space, p, expr) == want, (inner, p)

    @pytest.mark.parametrize("space", [Trees(AB), OTAB],
                             ids=["trees", "ordtrees"])
    def test_tree_open_matches_definition(self, space):
        leaf_a, leaf_b = _leaf(space, "a"), _leaf(space, "b")
        if isinstance(space, Trees):
            kids = Word((leaf_a, leaf_a))
            extra = [TreeNode(Atom("a"), (TreeNode(Atom("b"), (leaf_a,)),
                                          leaf_b))]
        else:
            kids = OrdWord(((leaf_a, OMEGA),))
            b_omega = OrdTreeNode(Atom("b"), OrdWord(((leaf_a, OMEGA),)))
            extra = [OrdTreeNode(Atom("a"), OrdWord(((leaf_b, OMEGA),))),
                     OrdTreeNode(Atom("a"), OrdWord(((leaf_b, ONE),
                                                     (b_omega, ONE))))]
        has_a, has_b = TreeOpen(UA, Whole()), TreeOpen(UB, Whole())
        children = [Whole(), Empty(), WordOpen((has_b,)),
                    WordOpen((has_a, has_a)), PrefixConcat(has_b, Whole()),
                    UpClosure((kids,))]
        points = list(enumerate_points(space, 4)) + extra
        for root, kid in itertools.product([UA, UB, Whole()], children):
            expr = TreeOpen(root, kid)
            for p in points:
                assert member_open(space, p, expr) == tree_open_def(
                    space, p, root, kid), (expr, p)


PRODUCT_ATOMS = st.one_of(LETTER_CLOSEDS.map(AtMostOne),
                          st.builds(Power, LETTER_CLOSEDS, BETAS))
OWW2 = OrdWords(AB, parse_ordinal("w^2"))
OMEGA_RUNS = st.lists(
    st.tuples(ATOMS, st.sampled_from([ONE, Ordinal.from_int(2), OMEGA,
                                      add(OMEGA, ONE), parse_ordinal("w*2")])),
    max_size=3).map(ord_word)


class TestAtMostOneIsPowerTwo:
    """(amo c) is c^{<2}: the two atoms give one membership, alone and
    among other atoms, on words and on ordinal words with infinite runs."""

    @settings(max_examples=300, deadline=None)
    @given(closed=LETTER_CLOSEDS, before=st.lists(PRODUCT_ATOMS, max_size=2),
           after=st.lists(PRODUCT_ATOMS, max_size=2),
           word=st.text("ab", max_size=5).map(w), runs=OMEGA_RUNS)
    def test_same_membership(self, closed, before, after, word, runs):
        amo, pow2 = AtMostOne(closed), Power(closed, Ordinal.from_int(2))
        for space, p in [(WAB, word), (OWW2, runs)]:
            for left, right in [((), ()), (tuple(before), tuple(after))]:
                assert member_closed(space, p, OrdProduct(
                    left + (amo,) + right)) == member_closed(
                    space, p, OrdProduct(left + (pow2,) + right)), (p, left,
                                                                    right)


class TestConstructorRules:
    """Each set constructor states its own rules and has a grammar row, so
    that a half-added constructor fails here, not at run time."""

    @pytest.mark.parametrize("cls", get_args(OpenExpr) + get_args(ClosedExpr),
                             ids=lambda cls: cls.__name__)
    def test_rules_and_row(self, cls):
        assert "member" in vars(cls)
        if cls in get_args(OpenExpr):
            assert "normal" in vars(cls)
            # normalize_open folds over exactly the fields holding opens.
            assert {name for name, many in _OPEN_FIELDS[cls]
                    if many is not None} == {
                f.name for f in fields(cls) if "OpenExpr" in f.type}
        assert cls in {row[0] for row in _SETS.values()}

    # The constructors whose extent is the default filter by membership,
    # for want of a rule over their parts' masks.  Every other constructor
    # states its mask rule, so that none falls back to the filter unseen.
    FILTERED = {BaseOpen, Rect, SumOpen, RTimes, DownClosure, OrdProduct}

    @pytest.mark.parametrize("cls", get_args(OpenExpr) + get_args(ClosedExpr),
                             ids=lambda cls: cls.__name__)
    def test_mask_rule_unless_filtered(self, cls):
        assert ("mask" in vars(cls)) == (cls not in self.FILTERED)


# One term per set class that does not fit Nat(): by its own space guard,
# or, for a class with none, by a part that does not.  The constants fit
# every space.
NAT_MISFITS = {
    Union: Union((Whole(), WordOpen((Whole(),)))),
    Intersect: Intersect((WordOpen((Whole(),)),)),
    UpClosure: UpClosure((NatVal(1), w("a"))),
    BaseOpen: UA,
    Rect: Rect(Whole(), Whole()),
    SumOpen: SumOpen(Whole(), Whole()),
    WordOpen: WordOpen((Whole(),)),
    ConcatUp: ConcatUp(Whole(), Whole()),
    TreeOpen: TreeOpen(Whole(), Whole()),
    Triangle: Triangle(ONE, Whole()),
    RTimes: RTimes(EmptyC(), Whole()),
    PrefixConcat: PrefixConcat(Whole(), Whole()),
    UpSubstructure: UpSubstructure(Whole()),
    CarrierOpen: CarrierOpen(DownClosure((w("a"),))),
    UnionC: UnionC((WholeC(), DownClosure((w("a"),)))),
    IntersectC: IntersectC((ComplementOf(UA),)),
    DownClosure: DownClosure((w("a"),)),
    ComplementOf: ComplementOf(UpSubstructure(Whole())),
    OrdProduct: OrdProduct((AtMostOne(WholeC()),)),
}
FIT_EVERY_SPACE = {Empty, Whole, EmptyC, WholeC}


class TestSpaceCheck:
    """Whether a term fits its space is one rule per class, `check`, run
    where the term enters the library, so membership, inclusion and
    extents reject a term that does not fit with one error text."""

    @pytest.mark.parametrize("cls", get_args(OpenExpr) + get_args(ClosedExpr),
                             ids=lambda cls: cls.__name__)
    def test_every_set_class_states_its_check(self, cls):
        assert "check" in vars(cls)
        assert (cls in FIT_EVERY_SPACE) != (cls in NAT_MISFITS)

    @pytest.mark.parametrize("cls", sorted(NAT_MISFITS, key=lambda c: c.__name__),
                             ids=lambda cls: cls.__name__)
    def test_entries_raise_the_same_error(self, cls):
        u = NAT_MISFITS[cls]
        # includes takes opens: a closed term goes in as a carrier.
        as_open = CarrierOpen(u) if isinstance(u, noethkit.sets._ClosedSet) else u
        texts = set()
        for ask in (lambda: member_open(Nat(), NatVal(2), u),
                    lambda: includes(Nat(), as_open, Whole()),
                    lambda: includes(Nat(), Empty(), as_open),
                    lambda: extent(Nat(), u, 0)):
            with pytest.raises(SetError) as info:
                ask()
            texts.add(str(info.value))
        assert len(texts) == 1, texts


def _rebuilt(t):
    """A term equal to t, built afresh from the constructors down: no set
    term in it has been hashed."""
    if isinstance(t, tuple):
        return tuple(map(_rebuilt, t))
    if isinstance(t, noethkit.sets._Set):
        return type(t)(*(_rebuilt(getattr(t, f.name)) for f in fields(t)))
    return t


def _field_hash(t) -> int:
    """The dataclass hash: the hash of the tuple of t's fields."""
    return hash(tuple(getattr(t, f.name) for f in fields(t)))


class TestKeptHash:
    """A set term keeps its hash once computed, and the kept value is the
    dataclass one, so set and dict orders do not change."""

    @given(st.one_of(WORD_OPENS, TREE_OPENS, _word_closeds(WORD_OPENS)))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_the_dataclass_hash(self, u):
        fresh = _rebuilt(u)
        assert fresh == u and fresh is not u
        assert hash(fresh) == _field_hash(fresh)  # its first hash
        assert hash(fresh) == _field_hash(fresh) == hash(u) == _field_hash(u)

    @pytest.mark.parametrize("cls", get_args(OpenExpr) + get_args(ClosedExpr)
                             + get_args(ProductAtom),
                             ids=lambda cls: cls.__name__)
    def test_every_set_class_keeps_its_hash(self, cls):
        kept = noethkit.sets._kept_hash(None).__code__
        assert vars(cls)["__hash__"].__code__ is kept

    def test_points_and_spaces_keep_the_dataclass_hash(self):
        kept = noethkit.sets._kept_hash(None).__code__
        for cls in (Word, OrdWord, Atom, Pair, Words, OrdWords, Product):
            assert vars(cls)["__hash__"].__code__ is not kept, cls

    def test_second_hash_reads_no_part(self, monkeypatch):
        # A count guard: the parts are of another class than the term, so
        # a second hash that walked the term would call theirs.
        t = Union((UpClosure((w("ab"),)), UpClosure((w("ba"), w("a")))))
        first = hash(t)
        calls = []
        kept = UpClosure.__hash__

        def counting(self):
            calls.append(self)
            return kept(self)

        monkeypatch.setattr(UpClosure, "__hash__", counting)
        assert hash(t) == first
        assert calls == []
        assert hash(_rebuilt(t)) == first and len(calls) == 2


def test_point_layout_is_read_through_the_space():
    """The layout of word and tree points lives in their space classes in
    space.py: sets.py tests no point class of theirs with isinstance."""
    point_classes = {"Word", "OrdWord", "TreeNode", "OrdTreeNode"}
    tree = ast.parse(Path(noethkit.sets.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            for part in ast.walk(node.args[1]):
                name = getattr(part, "id", None) or getattr(part, "attr", None)
                if name in point_classes:
                    found.append((node.lineno, name))
    assert not found


def test_member_and_mask_rules_test_no_space():
    """Whether a term fits its space is decided by its `check` rule, run
    once at the entry: no `member` or `mask` rule in sets.py tests its
    space with isinstance or asks `_word_space_base` for the letters."""
    from noethkit import space as space_mod
    space_classes = {cls.__name__ for cls in get_args(space_mod.SpaceExpr)}
    tree = ast.parse(Path(noethkit.sets.__file__).read_text())
    found = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for rule in cls.body:
            if not (isinstance(rule, ast.FunctionDef)
                    and rule.name in ("member", "mask")):
                continue
            for node in ast.walk(rule):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    continue
                if node.func.id == "_word_space_base" or (
                        node.func.id == "isinstance" and len(node.args) == 2
                        and {getattr(part, "id", None) for part in
                             ast.walk(node.args[1])} & space_classes):
                    found.append((cls.name, rule.name, node.lineno))
    assert not found


class TestClosureMaskCost:
    """A count guard: the mask of an up-closure typechecks each distinct
    point once and reads the up table, never the checked point order."""

    def test_up_closure_mask_typechecks_each_point_once(self, monkeypatch):
        import noethkit
        from noethkit import sets as sets_mod, space as space_mod
        points = (nat3(1, 0, 2), nat3(0, 3, 1), nat3(2, 2, 0), nat3(4, 1, 1))
        noethkit.clear_caches()
        oracle = oracle_for(NAT3, 4)
        calls = {"typecheck": 0, "point_leq": 0}
        depth = 0
        typecheck = space_mod.typecheck

        def counting_typecheck(*args):
            nonlocal depth
            calls["typecheck"] += depth == 0
            depth += 1
            try:
                return typecheck(*args)
            finally:
                depth -= 1

        def counting_point_leq(*args):
            calls["point_leq"] += 1
            return point_leq(*args)

        def up_entries():
            return [o["up_entries"] for o in noethkit.cache_stats()["oracles"]
                    if (o["space"], o["bound"]) == (NAT3, 4)]

        # Every typecheck goes through space.typecheck: sets checks points
        # with space._require_points.
        monkeypatch.setattr(space_mod, "typecheck", counting_typecheck)
        monkeypatch.setattr(space_mod, "point_leq", counting_point_leq)
        monkeypatch.setattr(sets_mod, "point_leq", counting_point_leq)
        oracle.mask(UpClosure(points + points[:2]))
        assert calls == {"typecheck": len(points), "point_leq": 0}
        assert up_entries() == [len(points)]
        oracle.mask(UpClosure(tuple(reversed(points))))
        assert up_entries() == [len(points)]


class TestClosureCheckCost:
    """A count guard: one membership query typechecks the point asked
    about, and each distinct point of each closure in its term, once,
    however many letters read the closures."""

    def test_word_pattern_typechecks_each_closure_point_once(
            self, monkeypatch):
        from noethkit import space as space_mod
        base = finite_qo("abc", [("a", "b")])
        closures = (UpClosure((Atom("a"), Atom("c"))),
                    UpClosure((Atom("b"),)),
                    UpClosure((Atom("c"), Atom("c"))))
        u = WordOpen(closures)
        calls = []
        typecheck = space_mod.typecheck

        def counting_typecheck(space, p):
            calls.append(p)
            return typecheck(space, p)

        monkeypatch.setattr(space_mod, "typecheck", counting_typecheck)
        word = Word(tuple(map(Atom, "cabc")))
        assert member_open(Words(base), word, u)
        assert calls == [word, Atom("a"), Atom("c"), Atom("b"), Atom("c")]


class TestIndexTableCost:
    """Count guards: the word rules of the extent oracle build each point
    of their index tables once per oracle, and a stage folds each subterm
    object of its generator family once."""

    def test_second_triangle_with_the_same_exponent_builds_no_suffix(
            self, monkeypatch):
        from noethkit import sets as sets_mod
        import noethkit
        noethkit.clear_caches()
        oracle = oracle_for(OWAB, 4)
        inner_b = WordOpen((UB,))
        oracle.mask(inner_b)
        calls = 0
        suffixes = sets_mod.ow_suffixes_strictly_after

        def counting(*args):
            nonlocal calls
            calls += 1
            return suffixes(*args)

        monkeypatch.setattr(sets_mod, "ow_suffixes_strictly_after", counting)
        oracle.mask(Triangle(OMEGA, WordOpen((UA,))))
        assert calls == len(oracle.universe)
        oracle.mask(Triangle(OMEGA, inner_b))
        assert calls == len(oracle.universe)

    @pytest.mark.parametrize("space", [WAB, OWAB], ids=["words", "ordwords"])
    def test_letter_pattern_reads_no_point_order(self, space, monkeypatch):
        import noethkit
        from noethkit import sets as sets_mod
        noethkit.clear_caches()
        oracle = oracle_for(space, 4)
        calls = 0
        leq = sets_mod._leq

        def counting(*args):
            nonlocal calls
            calls += 1
            return leq(*args)

        def table(name):
            return sum(o[name] for o in noethkit.cache_stats()["oracles"])

        def prepend_rows():
            return {key: rows for o in noethkit.cache_stats()["oracles"]
                    for key, rows in o["rows"].items() if key[0] == "prepend"}

        monkeypatch.setattr(sets_mod, "_leq", counting)
        oracle.mask(WordOpen((UA, UB, UA)))
        assert calls == table("up_entries") == 0
        rows = prepend_rows()
        n = len(oracle.universe)
        assert rows == {("prepend", Atom("a")): n, ("prepend", Atom("b")): n}
        # A second pattern with the same tail <b,a> reads the same rows.
        oracle.mask(WordOpen((BaseOpen(frozenset("ab")), UB, UA)))
        assert prepend_rows() == rows and calls == 0

    def test_concat_up_over_glued_minimal_sides_calls_no_glue(
            self, monkeypatch):
        import noethkit
        noethkit.clear_caches()
        oracle = oracle_for(WAB, 4)
        left, right = UpClosure((w("a"),)), UpClosure((w("b"), w("ba")))
        sides = WordOpen((UA,)), WordOpen((UB,))
        for side in (left, right) + sides:
            oracle.mask(side)  # the patterns build the prepend rows
        calls = 0
        cons = Words.cons

        def counting(*args):
            nonlocal calls
            calls += 1
            return cons(*args)

        def rows():
            [got] = [o["rows"] for o in noethkit.cache_stats()["oracles"]
                     if (o["space"], o["bound"]) == (WAB, 4)]
            return got

        monkeypatch.setattr(Words, "cons", counting)
        oracle.mask(ConcatUp(*sides))
        built = rows()
        # The glue row of the left side's minimal word (a) composes the
        # prepend row of a, which the patterns built.
        assert calls == 0 and ("glue", oracle.index[w("a")]) in built
        # Other sides with the same extents, so the same minimal points.
        oracle.mask(ConcatUp(left, right))
        assert calls == 0 and rows() == built

    def test_repeated_prefix_concat_builds_no_word(self, monkeypatch):
        import noethkit
        noethkit.clear_caches()
        oracle = oracle_for(WAB, 4)
        rests = (Whole(), WordOpen((UB,)), UpClosure((w("ab"),)))
        for rest in rests:
            oracle.mask(rest)
        oracle.mask(PrefixConcat(BaseOpen(frozenset("ab")), Whole()))
        calls = 0
        init = Word.__init__

        def counting(self, *args):
            nonlocal calls
            calls += 1
            init(self, *args)

        monkeypatch.setattr(Word, "__init__", counting)
        for letters in (UA, UB, BaseOpen(frozenset("ab"))):
            for rest in rests[1:]:
                oracle.mask(PrefixConcat(letters, rest))
        assert calls == 0

    def test_second_substructure_rule_builds_no_row(self, monkeypatch):
        import noethkit
        noethkit.clear_caches()
        space = Trees(AB)
        oracle = oracle_for(space, 4)
        leaf_a = TreeNode(Atom("a"), ())
        calls = 0
        substructures = Trees.substructures

        def counting(*args):
            nonlocal calls
            calls += 1
            return substructures(*args)

        def rows():
            [got] = [o["rows"]["substructure"]
                     for o in noethkit.cache_stats()["oracles"]
                     if (o["space"], o["bound"]) == (space, 4)]
            return got

        monkeypatch.setattr(Trees, "substructures", counting)
        oracle.mask(UpSubstructure(UpClosure((leaf_a,))))
        assert calls == rows() == len(oracle.universe)
        # Children opens read by membership call no substructure either.
        oracle.mask(UpSubstructure(UpClosure((TreeNode(Atom("b"), ()),))))
        oracle.mask(TreeOpen(UA, WordOpen((Whole(),))))
        oracle.mask(TreeOpen(UB, UpClosure((Word((leaf_a,)),))))
        assert calls == rows() == len(oracle.universe)

    def test_subword_stage_folds_each_subterm_object_once(self, monkeypatch):
        from noethkit.expanders import SubwordExpander, apply, iterate
        expander = SubwordExpander(AB)
        stage = iterate(expander, 2, bound=3).stages[-1]
        families = []
        emit = expander.fresh_generators

        def recording(sources):
            families.append(emit(sources))
            return families[-1]

        monkeypatch.setattr(expander, "fresh_generators", recording)
        calls = 0
        for cls in get_args(OpenExpr):
            def counting(self, normal=vars(cls)["normal"]):
                nonlocal calls
                calls += 1
                return normal(self)
            monkeypatch.setattr(cls, "normal", counting)
        apply(expander, stage, bound=3)
        [family] = families
        objects, sizes = {}, 0
        stack = list(family)
        while stack:
            u = stack.pop()
            sizes += 1
            if id(u) not in objects:
                objects[id(u)] = u
                for name, many in _OPEN_FIELDS[type(u)]:
                    if many is not None:
                        kids = getattr(u, name)
                        stack.extend(kids if many else (kids,))
        # One normal() per distinct object, far fewer than one per place.
        assert calls == len(objects) < sizes / 2


class TestCacheInspection:
    def test_extent_shows_in_stats_and_clear_resets(self):
        import noethkit
        space = Words(discrete("c", "d"))
        pattern = WordOpen((BaseOpen(frozenset("c")), BaseOpen(frozenset("d"))))
        noethkit.clear_caches()
        extent(space, pattern, 3)
        extent(space, UpClosure((Word((Atom("c"),)),)), 3)
        stats = noethkit.cache_stats()
        [entry] = [o for o in stats["oracles"] if o["space"] == space]
        assert entry["bound"] == 3 and entry["universe"] == 15
        assert entry["open"] >= 2
        assert entry["rows"][("prepend", Atom("c"))] == 15
        assert entry["up_entries"] >= 1
        assert stats["leq"].currsize > 0
        noethkit.clear_caches()
        stats = noethkit.cache_stats()
        assert stats["oracles"] == []
        assert stats["leq"].currsize == 0
        assert stats["open_key"].currsize == 0

    def test_parse_memo_shows_in_stats_and_clear_resets(self):
        import noethkit
        from noethkit.sexpr import parse_point, parse_space
        noethkit.clear_caches()
        for _ in range(2):
            parse_space("(words (fin c d))")
        parse_point("(word c)")
        parse = noethkit.cache_stats()["parse"]
        assert sorted(parse) == ["point", "set", "space"]
        assert (parse["space"].hits, parse["space"].misses) == (1, 1)
        assert parse["point"].currsize == 1
        noethkit.clear_caches()
        parse = noethkit.cache_stats()["parse"]
        assert all(info.currsize == 0 for info in parse.values())

    def test_index_tables_show_in_stats_and_clear_resets(self):
        import noethkit

        def entry(space, bound):
            [got] = [o for o in noethkit.cache_stats()["oracles"]
                     if (o["space"], o["bound"]) == (space, bound)]
            return got

        noethkit.clear_caches()
        words, ordwords = oracle_for(WAB, 3), oracle_for(OWAB, 3)
        words.mask(ConcatUp(WordOpen((UA,)), WordOpen((UB,))))
        words.mask(PrefixConcat(UA, Whole()))
        words.mask(WordOpen((UA, UB)))
        ordwords.mask(Triangle(OMEGA, WordOpen((UA,))))
        n, m = len(words.universe), len(ordwords.universe)
        a, b = Atom("a"), Atom("b")
        # One glue relation for the one minimal word of the left side, one
        # prepend relation per letter (the patterns read them too), the
        # substructure relation (for the patterns), one suffix relation per
        # exponent; n rows each.
        assert entry(WAB, 3)["rows"] == {
            ("glue", words.index[w("a")]): n, ("prepend", a): n,
            ("prepend", b): n, "substructure": n}
        assert entry(OWAB, 3)["rows"] == {
            ("suffix", OMEGA): m, ("prepend", a): m, "substructure": m}
        noethkit.clear_caches()
        assert noethkit.cache_stats()["oracles"] == []
        oracle_for(WAB, 3)
        assert entry(WAB, 3)["rows"] == {}

    def test_point_order_and_open_keys_are_bounded(self):
        import noethkit
        from noethkit import sets as sets_mod, space as space_mod
        stats = noethkit.cache_stats()
        assert stats["leq"].maxsize == space_mod.LEQ_MEMO_SIZE
        assert stats["open_key"].maxsize == sets_mod.OPEN_KEY_MEMO_SIZE
        assert all(isinstance(size, int) and size > 0 for size in
                   (space_mod.LEQ_MEMO_SIZE, sets_mod.OPEN_KEY_MEMO_SIZE))

    def test_oracles_are_bounded_oldest_first(self):
        import noethkit
        noethkit.clear_caches()
        limit = noethkit.cache_stats()["max_oracles"]
        assert limit == noethkit.sets.MAX_ORACLES

        def bounds():
            return [o["bound"] for o in noethkit.cache_stats()["oracles"]]

        for bound in range(limit + 2):
            oracle_for(Nat(), bound)
        assert bounds() == list(range(2, limit + 2))
        # A kept oracle is read back, not rebuilt, and keeps its place.
        kept = oracle_for(Nat(), 2)
        assert oracle_for(Nat(), 2) is kept
        oracle_for(Nat(), limit + 2)
        assert bounds() == list(range(3, limit + 3))
        noethkit.clear_caches()
