import hashlib
import itertools
import random
import time
from typing import get_args

import pytest

from noethkit.ordinal import OMEGA, ONE, Ordinal, add, parse_ordinal
from noethkit.sexpr import _SPACES
from noethkit.space import (
    Atom,
    FiniteQO,
    NatVal,
    Nat,
    OrdWord,
    OrdWords,
    OrdTreeNode,
    OrdTrees,
    Pair,
    PointTerm,
    Product,
    InL,
    InR,
    SpaceError,
    SpaceExpr,
    Sum,
    TreeNode,
    Trees,
    Word,
    Words,
    chain,
    discrete,
    enumerate_points,
    finite_qo,
    ord_to_word,
    ord_word,
    ow_length,
    ow_suffixes_strictly_after,
    point_leq,
    typecheck,
    word_to_ord,
)

from oracles import higman_brute, kruskal_brute, count_nodes

AB = discrete("a", "b")
WAB = Words(AB)
TAB = Trees(AB)
N3 = Product(Nat(), Product(Nat(), Nat()))


# SHA-256 of each space's enumeration at bound 3 and of its order matrix.
LAYER_DIGESTS = {
    "FiniteQO":
        "0457bdd36f732ffeaa636e1f7f3b5b7a37690c2849043c122c24fad159015329",
    "Nat": "9e6cecadef6b2a2630690bfb2d2fafa17fb4a0be363eff1191774a5d079e8a3c",
    "Sum": "9d7dbf605f8b99a006c7da941facf95f1eb922b7eeefac10d166c09386ef1b89",
    "Product":
        "7e026ab3a9d3aca064b647b44100dfda1e73c639f48d20c329826564506f4948",
    "Words":
        "fc08fadcae526b254a3d7422a723735629bee788696bbb4eac9e823cc935b1a4",
    "Trees":
        "eab66187ccc542804d7672650aad8e4f7a20836b4a6b46c53779960ab5cb7ea3",
    "OrdWords":
        "1ace0f1464b566d7015a08a9f2f5dd0b8e54d261edfe62b9d63fa4bae6f08647",
    "OrdTrees":
        "52c9e298c152cd5160fd8e472e1a7ecba6f845319b9b8e651e56fa3a34b89eb5",
}


def w(text: str) -> Word:
    return Word(tuple(Atom(c) for c in text))


def t(label: str, *children: TreeNode) -> TreeNode:
    return TreeNode(Atom(label), tuple(children))


def triple(a, b, c) -> Pair:
    return Pair(NatVal(a), Pair(NatVal(b), NatVal(c)))


class TestTypecheck:
    def test_word(self):
        assert typecheck(WAB, w("ab"))

    def test_ordword_length_bound(self):
        space = OrdWords(AB, OMEGA)
        too_long = OrdWord(((Atom("a"), OMEGA),))
        assert not typecheck(space, too_long)
        assert typecheck(OrdWords(AB, add(OMEGA, ONE)), too_long)

    def test_tree(self):
        assert typecheck(TAB, t("a", t("b")))

    def test_sum(self):
        space = Sum(AB, Nat())
        assert typecheck(space, InL(Atom("a")))
        assert typecheck(space, InR(NatVal(3)))
        assert not typecheck(space, InL(NatVal(3)))


class TestPointLeq:
    def test_higman_examples(self):
        # Oracle: exhaustive strictly-increasing-map search.
        leq = lambda x, y: x == y
        assert higman_brute(tuple("ab"), tuple("aab"), leq)
        assert point_leq(WAB, w("ab"), w("aab"))
        assert not higman_brute(tuple("ab"), tuple("ba"), leq)
        assert not point_leq(WAB, w("ab"), w("ba"))

    def test_higman_agrees_with_brute_force(self):
        words = [p for p in enumerate_points(WAB, 4)]
        leq = lambda x, y: x == y
        for u, v in itertools.product(words, repeat=2):
            assert point_leq(WAB, u, v) == higman_brute(
                u.letters, v.letters, lambda x, y: x == y)

    def test_dickson_triple(self):
        assert point_leq(N3, triple(1, 2, 3), triple(1, 5, 3))
        assert not point_leq(N3, triple(1, 2, 3), triple(0, 5, 3))

    def test_kruskal_example(self):
        # a(b) embeds into c-rooted tree holding a subtree a(x(b)).
        abc = discrete("a", "b", "c", "x")
        space = Trees(abc)
        small = TreeNode(Atom("a"), (TreeNode(Atom("b"), ()),))
        inner = TreeNode(Atom("a"), (TreeNode(Atom("x"), (TreeNode(Atom("b"), ()),)),))
        big = TreeNode(Atom("c"), (inner,))
        assert point_leq(space, small, big)
        assert kruskal_brute(small, big, lambda x, y: x == y)

    def test_kruskal_agrees_with_brute_force(self):
        trees = [p for p in enumerate_points(TAB, 4)]
        assert len(trees) == 102  # ordered trees with <=4 nodes, 2 labels
        for s, u in itertools.product(trees, repeat=2):
            assert point_leq(TAB, s, u) == kruskal_brute(
                s, u, lambda x, y: x == y)

    def test_kruskal_respects_label_order(self):
        space = Trees(chain("a", "b"))
        assert point_leq(space, t("a"), t("b"))
        assert not point_leq(space, t("b"), t("a"))

    def test_sum_injections_incomparable(self):
        space = Sum(Nat(), Nat())
        assert not point_leq(space, InL(NatVal(0)), InR(NatVal(5)))
        assert point_leq(space, InL(NatVal(0)), InL(NatVal(5)))

    def test_deep_chain_trees_embed_in_themselves_quickly(self):
        # Subtree pairs recur through the point-order memo; a search that
        # bypasses it doubles its work with each level of depth.
        tree = TreeNode(Atom("a"), ())
        ord_tree = OrdTreeNode(Atom("a"), OrdWord(()))
        for _ in range(23):
            tree = TreeNode(Atom("a"), (tree,))
            ord_tree = OrdTreeNode(Atom("a"), OrdWord(((ord_tree, ONE),)))
        for space, point in ((TAB, tree), (OrdTrees(AB, OMEGA), ord_tree)):
            start = time.perf_counter()
            assert point_leq(space, point, point)
            assert time.perf_counter() - start < 1.0

    def test_reflexive_transitive_everywhere(self):
        spaces = [AB, Nat(), Sum(AB, Nat()), Product(AB, Nat()), WAB, TAB,
                  OrdWords(AB, OMEGA), OrdTrees(AB, OMEGA)]
        digests = {}
        for space in spaces:
            pts = enumerate_points(space, 3)
            for x in pts:
                assert point_leq(space, x, x)
            rel = {(x, y) for x in pts for y in pts if point_leq(space, x, y)}
            for (x, y), (y2, z) in itertools.product(rel, repeat=2):
                if y == y2:
                    assert (x, z) in rel
            # The enumeration order and the whole order matrix, pinned.
            matrix = "".join("1" if (x, y) in rel else "0"
                             for x in pts for y in pts)
            digests[type(space).__name__] = hashlib.sha256(
                (repr(pts) + matrix).encode()).hexdigest()
        assert digests == LAYER_DIGESTS

    def test_higman_wqo_on_random_sequences(self):
        rng = random.Random(20240817)
        for _ in range(5):
            seq = [w("".join(rng.choice("ab") for _ in range(rng.randrange(9))))
                   for _ in range(200)]
            assert any(
                point_leq(WAB, seq[i], seq[j])
                for i in range(len(seq)) for j in range(i + 1, len(seq))
            )


class TestOrdWords:
    def test_canonical_merge_idempotent(self):
        segs = ((Atom("a"), ONE), (Atom("a"), OMEGA), (Atom("b"), ONE))
        cw = ord_word(segs)
        assert cw == ord_word(cw.segments)
        assert cw.segments[0] == (Atom("a"), add(ONE, OMEGA))

    def test_greedy_matches_expansion_on_finite_counts(self):
        space = OrdWords(AB, OMEGA)
        pts = enumerate_points(space, 3)
        for u, v in itertools.product(pts, repeat=2):
            got = point_leq(space, u, v)
            want = point_leq(WAB, ord_to_word(u), ord_to_word(v))
            assert got == want, (u, v)

    def test_round_trip_word_conversions(self):
        for p in enumerate_points(WAB, 3):
            assert ord_to_word(word_to_ord(p)) == p

    def test_greedy_on_infinite_runs(self):
        space = OrdWords(AB, parse_ordinal("w*2 + 1"))
        a_om = OrdWord(((Atom("a"), OMEGA),))
        a_om_b = OrdWord(((Atom("a"), OMEGA), (Atom("b"), ONE)))
        a_five = ord_word([(Atom("a"), Ordinal.from_int(5))])
        assert point_leq(space, a_five, a_om)
        assert point_leq(space, a_om, a_om_b)
        assert not point_leq(space, a_om_b, a_om)
        assert not point_leq(space, a_om, a_five)

    def test_suffixes_of_omega_run(self):
        word = OrdWord(((Atom("a"), OMEGA),))
        assert ow_suffixes_strictly_after(word, OMEGA) == (word,)
        longer = ow_suffixes_strictly_after(word, add(OMEGA, ONE))
        assert set(longer) == {word, OrdWord(())}

    def test_suffixes_of_mixed_word(self):
        word = OrdWord(((Atom("a"), parse_ordinal("w + 2")), (Atom("b"), ONE)))
        suffixes = set(ow_suffixes_strictly_after(word, ow_length(word)))
        # Finite cuts leave a^(w+2) b; cutting at position w leaves a b (the
        # remainder 2 would need the non-successor cut mu = w); then b; then
        # the cut at the final letter leaves the empty word.
        assert suffixes == {
            OrdWord(((Atom("a"), parse_ordinal("w + 2")), (Atom("b"), ONE))),
            OrdWord(((Atom("a"), ONE), (Atom("b"), ONE))),
            OrdWord(((Atom("b"), ONE),)),
            OrdWord(()),
        }


class TestEnumerate:
    def test_words_bound_two(self):
        got = enumerate_points(WAB, 2)
        assert got == (w(""), w("a"), w("b"), w("aa"), w("ab"), w("ba"), w("bb"))

    def test_product_of_naturals(self):
        got = enumerate_points(Product(Nat(), Nat()), 1)
        assert got == (Pair(NatVal(0), NatVal(0)), Pair(NatVal(0), NatVal(1)),
                       Pair(NatVal(1), NatVal(0)), Pair(NatVal(1), NatVal(1)))

    def test_unlabeled_trees_bound_three(self):
        single = Trees(discrete("n"))
        assert len(enumerate_points(single, 3)) == 4

    def test_deterministic_and_duplicate_free(self):
        pts = enumerate_points(OrdWords(AB, OMEGA), 3)
        assert len(set(pts)) == len(pts)
        assert pts == enumerate_points(OrdWords(AB, OMEGA), 3)

    def test_ord_trees_small(self):
        pts = enumerate_points(OrdTrees(AB, OMEGA), 2)
        # Single nodes and one-child chains, with run-count one.
        assert OrdTreeNode(Atom("a"), OrdWord(())) in pts
        chain2 = OrdTreeNode(
            Atom("a"), OrdWord(((OrdTreeNode(Atom("b"), OrdWord(())), ONE),)))
        assert chain2 in pts
        assert all(typecheck(OrdTrees(AB, OMEGA), p) for p in pts)

    @pytest.mark.parametrize("bound", range(1, 6))
    def test_ord_trees_with_finite_runs_are_the_trees(self, bound):
        # Expanding each run of children is a size-preserving bijection
        # from the omega-branching ordinal trees onto the finite trees.
        def expand(p):
            return TreeNode(p.label, tuple(
                map(expand, ord_to_word(p.children).letters)))

        trees = enumerate_points(TAB, bound)
        ord_trees = enumerate_points(OrdTrees(AB, OMEGA), bound)
        assert sorted(map(expand, ord_trees), key=trees.index) == list(trees)
        # Below alpha = 2 a tree is a chain: a word of 1..bound labels.
        chains = enumerate_points(OrdTrees(AB, Ordinal.from_int(2)), bound)
        assert len(chains) == 2 ** (bound + 1) - 2
        assert set(chains) <= set(ord_trees)


class TestFiniteQO:
    def test_validation_rejects_nontransitive(self):
        with pytest.raises(Exception):
            finite_qo("ab", []).__class__(("a", "b"),
                                          frozenset([("a", "a"), ("b", "b"),
                                                     ("a", "b"), ("b", "a")]) - {("a", "a")})

    def test_validation_names_a_transitivity_triple(self):
        # Reflexive, so the transitivity check is the one that fails.
        with pytest.raises(SpaceError,
                           match="not transitive: 'a' 'b' 'c'"):
            FiniteQO(("a", "b", "c"), frozenset(
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]))

    def test_chain_order(self):
        c = chain("a", "b", "c")
        assert c.holds("a", "c")
        assert not c.holds("c", "a")


class TestConstructorRules:
    """Each space and point class states its own rules, so that a
    half-added constructor fails here, not at run time."""

    @pytest.mark.parametrize("cls", get_args(SpaceExpr),
                             ids=lambda cls: cls.__name__)
    def test_space_rules_and_form(self, cls):
        assert {"typecheck", "order", "enumerate"} <= set(vars(cls))
        # (fin ...), (qo ...) and nat are read and printed by hand.
        assert cls in {row[0] for row in _SPACES.values()} | {FiniteQO, Nat}

    @pytest.mark.parametrize("cls", get_args(SpaceExpr),
                             ids=lambda cls: cls.__name__)
    def test_structured_space_rules(self, cls):
        # The set layer reads word and tree points only through these.
        rules = set(vars(cls))
        if cls in (Words, OrdWords):
            assert WORD_RULES <= rules
        elif cls in (Trees, OrdTrees):
            assert TREE_RULES <= rules
        else:  # a class with some of them is a word or tree space
            assert not (WORD_RULES | TREE_RULES) & rules

    @pytest.mark.parametrize("cls", get_args(PointTerm),
                             ids=lambda cls: cls.__name__)
    def test_point_size(self, cls):
        assert "size" in vars(cls)


WORD_RULES = {"uncons", "splits", "substructures", "cons", "pattern_leq",
              "runs", "point"}
TREE_RULES = {"substructures", "forest"}
