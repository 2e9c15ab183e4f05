import itertools
from typing import get_args

import pytest

from noethkit.expanders import SubwordExpander, apply, iterate, trivial_stage
from noethkit.inductive import (
    ConstF,
    DivisibilityTable,
    FunctorExpr,
    FunctorError,
    IdF,
    ListF,
    MConst,
    MInL,
    MInR,
    MList,
    MPair,
    MUnit,
    MuElement,
    ProdF,
    SumF,
    UnfoldExpander,
    UnitF,
    _FUNCTORS,
    check_preorder_stability,
    enumerate_mu,
    mu_depth,
    mu_to_tree,
    mu_to_word,
    substructure_leq,
    support,
    tree_to_mu,
    trees_functor,
    word_to_mu,
    words_functor,
)
from noethkit.sets import (
    BaseOpen,
    PrefixConcat,
    UpSubstructure,
    Whole,
    WordOpen,
    extent,
    normalize_open,
    oracle_for,
)
from noethkit.space import Atom, TreeNode, Trees, Word, Words, discrete, enumerate_points, point_leq

from oracles import in_generated_lattice

AB = discrete("a", "b")
WF = words_functor(AB)
TF = trees_functor(AB)
TREE_CAP = 8  # element size is twice the node count


def w(text: str) -> Word:
    return Word(tuple(Atom(c) for c in text))


def all_subtrees(t: TreeNode):
    yield t
    for c in t.children:
        yield from all_subtrees(c)


class TestEnumerate:
    def test_depth_zero_is_empty(self):
        assert enumerate_mu(WF, 0) == ()

    def test_word_stages_are_length_bounded(self):
        for depth in range(1, 5):
            got = {mu_to_word(m) for m in enumerate_mu(WF, depth)}
            want = {p for p in enumerate_points(Words(AB), depth - 1)}
            assert got == want, depth
        assert len(enumerate_mu(WF, 3)) == 7

    def test_tree_stage_one_is_single_nodes(self):
        got = enumerate_mu(TF, 1, size_cap=TREE_CAP)
        assert {mu_to_tree(m) for m in got} == {
            TreeNode(Atom("a"), ()), TreeNode(Atom("b"), ())}

    def test_tree_stage_four_is_all_small_trees(self):
        got = {mu_to_tree(m) for m in enumerate_mu(TF, 4, size_cap=TREE_CAP)}
        want = set(enumerate_points(Trees(AB), 4))
        assert got == want
        assert len(got) == 102

    def test_stages_grow(self):
        for depth in range(1, 4):
            a = set(enumerate_mu(TF, depth, size_cap=TREE_CAP))
            b = set(enumerate_mu(TF, depth + 1, size_cap=TREE_CAP))
            assert a <= b

    def test_list_functor_needs_cap(self):
        with pytest.raises(FunctorError):
            enumerate_mu(TF, 2)


class TestSupport:
    def test_cons_support_is_tail(self):
        word = word_to_mu(w("ab"))
        tail = word_to_mu(w("b"))
        assert support(WF, word) == (tail,)

    def test_node_support_is_occurrence_set(self):
        t1 = tree_to_mu(TreeNode(Atom("a"), ()))
        t2 = tree_to_mu(TreeNode(Atom("b"), ()))
        node = MPair(MConst(Atom("a")), MList((t1, t2, t1)))
        assert set(support(TF, node)) == {t1, t2}

    def test_nil_support_empty(self):
        assert support(WF, word_to_mu(w(""))) == ()

    def test_depths(self):
        assert mu_depth(WF, word_to_mu(w(""))) == 1
        assert mu_depth(WF, word_to_mu(w("ab"))) == 3
        assert mu_depth(TF, tree_to_mu(TreeNode(Atom("a"), ()))) == 1


class TestSubstructure:
    def test_words_substructure_is_suffix(self):
        words = [p for p in enumerate_points(Words(AB), 3)]
        for u, v in itertools.product(words, repeat=2):
            got = substructure_leq(WF, word_to_mu(u), word_to_mu(v))
            want = any(v.letters[i:] == u.letters
                       for i in range(len(v.letters) + 1))
            assert got == want, (u, v)

    def test_reflexive(self):
        m = word_to_mu(w("ab"))
        assert substructure_leq(WF, m, m)

    def test_tree_substructure_is_subtree(self):
        trees = [p for p in enumerate_points(Trees(AB), 4)]
        for s, t in itertools.product(trees[:40], trees[:40]):
            got = substructure_leq(TF, tree_to_mu(s), tree_to_mu(t))
            want = s in set(all_subtrees(t))
            assert got == want, (s, t)


class TestDivisibility:
    def test_words_divisibility_is_subsequence_embedding(self):
        table = DivisibilityTable(WF, 5)
        universe = table.universe()
        assert len(universe) == 31
        for x, y in itertools.product(universe, repeat=2):
            got = table.leq(x, y)
            want = point_leq(Words(AB), mu_to_word(x), mu_to_word(y))
            assert got == want, (mu_to_word(x), mu_to_word(y))

    def test_trees_divisibility_is_tree_embedding(self):
        table = DivisibilityTable(TF, 4, size_cap=TREE_CAP)
        universe = table.universe()
        assert len(universe) == 102
        for x, y in itertools.product(universe, repeat=2):
            got = table.leq(x, y)
            want = point_leq(Trees(AB), mu_to_tree(x), mu_to_tree(y))
            assert got == want, (mu_to_tree(x), mu_to_tree(y))

    def test_reflexive(self):
        table = DivisibilityTable(WF, 3)
        assert table.leq(word_to_mu(w("ab")), word_to_mu(w("ab")))

    def test_stages_conservative(self):
        table = DivisibilityTable(WF, 5)
        for n in range(1, 5):
            small = table.universe(n)
            for x, y in itertools.product(small, repeat=2):
                assert table.leq(x, y, n) == table.leq(x, y, n + 1), (x, y, n)

    def test_quasi_order_at_every_stage(self):
        table = DivisibilityTable(TF, 3, size_cap=6)
        for n in range(1, 4):
            universe = table.universe(n)
            for x in universe:
                assert table.leq(x, x, n)
            rel = {(x, y) for x in universe for y in universe
                   if table.leq(x, y, n)}
            for (x, y), (y2, z) in itertools.product(rel, repeat=2):
                if y == y2:
                    assert (x, z) in rel

    def test_downward_closed_stages(self):
        # Every proper substructure of a stage-(n+1) element lies in stage n.
        table = DivisibilityTable(TF, 3, size_cap=TREE_CAP)
        for n in range(1, 3):
            bigger = table.universe(n + 1)
            smaller = set(table.universe(n))
            for b in bigger:
                for a in bigger:
                    if a != b and substructure_leq(TF, a, b):
                        assert a in smaller, (a, b, n)


class TestStability:
    def test_words_stability(self):
        for n in range(1, 6):
            assert check_preorder_stability(WF, n)

    def test_trees_stability(self):
        for n in range(1, 4):
            assert check_preorder_stability(TF, n, size_cap=6)

    def test_trivial_stage_one(self):
        assert check_preorder_stability(TF, 1, size_cap=6)

    def test_a_pair_dropped_from_a_stage_is_seen(self, monkeypatch):
        # The check recomputes the order apart from the table, so it sees a
        # stage-3 table missing (word a) <= (word a b), a pair that no
        # transitive step and no support pair gives back.
        close = DivisibilityTable._close
        pair = (word_to_mu(w("a")), word_to_mu(w("ab")))

        def drop_one(table, universe, prev_rel):
            rel = close(table, universe, prev_rel)
            return rel - {pair} if len(table.relations) == 3 else rel

        assert check_preorder_stability(WF, 3)
        monkeypatch.setattr(DivisibilityTable, "_close", drop_one)
        assert not check_preorder_stability(WF, 3)


class TestUnfoldRule:
    def test_word_generators_at_stage_one(self):
        gens = [normalize_open(g)
                for g in UnfoldExpander(WF).fresh_generators([Whole()])]
        exts = {frozenset(extent(Words(AB), g, 3)) for g in gens}
        contains_a = frozenset(p for p in enumerate_points(Words(AB), 3)
                               if Atom("a") in p.letters)
        whole = frozenset(enumerate_points(Words(AB), 3))
        assert exts == {whole, contains_a,
                        frozenset(p for p in enumerate_points(Words(AB), 3)
                                  if Atom("b") in p.letters)}

    def test_empty_source_collapses(self):
        from noethkit.sets import Empty
        gens = [normalize_open(g)
                for g in UnfoldExpander(WF).fresh_generators([Empty()])]
        assert all(isinstance(g, (Whole, Empty)) for g in gens)

    def test_words_unfold_matches_subword_rule(self):
        bound = 3
        unfold = iterate(UnfoldExpander(WF), 3, bound=bound)
        subword = iterate(SubwordExpander(AB), 3, bound=bound)
        oracle = oracle_for(Words(AB), bound)
        whole = frozenset(oracle.universe)
        for k in range(4):
            ga = [oracle.extent(g) for g in unfold.stages[k].opens()]
            gb = [oracle.extent(g) for g in subword.stages[k].opens()]
            assert all(in_generated_lattice(e, gb, whole) for e in ga), k
            assert all(in_generated_lattice(e, ga, whole) for e in gb), k

    def test_tree_unfold_space(self):
        expander = UnfoldExpander(TF)
        assert expander.space == Trees(AB)
        stage1 = apply(expander, trivial_stage(Trees(AB)), bound=3)
        assert stage1.opens()

    def test_unsupported_functor_shape(self):
        with pytest.raises(FunctorError):
            UnfoldExpander(SumF(UnitF(), UnitF()))


class TestConstructorRules:
    """Each functor and element class states its own rules, so that a
    half-added constructor fails here, not at run time."""

    @pytest.mark.parametrize("cls", get_args(FunctorExpr),
                             ids=lambda cls: cls.__name__)
    def test_functor_rules_and_form(self, cls):
        assert {"lift", "occurrences", "values", "grounded",
                "has_list"} <= set(vars(cls))
        # unit and id are bare tokens, read and printed by hand.
        assert cls in {row[0] for row in _FUNCTORS.values()} | {UnitF, IdF}

    @pytest.mark.parametrize("cls", get_args(MuElement),
                             ids=lambda cls: cls.__name__)
    def test_element_size(self, cls):
        assert "size" in vars(cls)
