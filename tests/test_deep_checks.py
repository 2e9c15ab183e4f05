"""Cross-cutting randomized audits: each checks a core algorithm against an
independent brute-force formulation or an algebraic law, at desk scale."""

import itertools
import random

from noethkit.expanders import (
    NatShiftExpander,
    OrdinalSubwordExpander,
    SubwordExpander,
    TreeExpander,
    iterate,
)
from noethkit.ordinal import OMEGA, ONE, Ordinal, add, cmp, parse_ordinal
from noethkit.sets import (
    AtMostOne,
    BaseOpen,
    ConcatUp,
    DownClosure,
    Intersect,
    OrdProduct,
    Power,
    Triangle,
    Union,
    UpClosure,
    WholeC,
    WordOpen,
    includes,
    member_closed,
    oracle_for,
    member_open,
)
from noethkit.space import (
    Atom,
    OrdWord,
    OrdWords,
    Word,
    Words,
    discrete,
    enumerate_points,
    ord_word,
    ow_suffix_from,
    point_leq,
    word_to_ord,
)
from noethkit.wsts import VAS, VASRule, minimize_basis

from oracles import in_generated_lattice

AB = discrete("a", "b")
WAB = Words(AB)
OWAB = OrdWords(AB, parse_ordinal("w*2"))


def product_brute(base, atoms, letters, pos=0, ai=0):
    """Independent backtracking matcher for ordinal products on finite words."""
    if ai == len(atoms):
        return pos == len(letters)
    atom = atoms[ai]
    if isinstance(atom, AtMostOne):
        if product_brute(base, atoms, letters, pos, ai + 1):
            return True
        return (pos < len(letters)
                and member_closed(base, letters[pos], atom.closed)
                and product_brute(base, atoms, letters, pos + 1, ai + 1))
    for k in range(len(letters) - pos + 1):
        if cmp(Ordinal.from_int(k), atom.beta) >= 0:
            break
        if k > 0 and not member_closed(base, letters[pos + k - 1], atom.closed):
            break
        if product_brute(base, atoms, letters, pos + k, ai + 1):
            return True
    return False


class TestOrdinalProductMatcher:
    def test_against_backtracking_on_finite_words(self):
        rng = random.Random(20240901)
        exponents = [ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA,
                     add(OMEGA, ONE)]
        closeds = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),)),
                   WholeC()]
        words = enumerate_points(WAB, 5)
        for _ in range(60):
            atoms = []
            for _ in range(rng.randrange(0, 4)):
                if rng.random() < 0.5:
                    atoms.append(AtMostOne(rng.choice(closeds)))
                else:
                    atoms.append(Power(rng.choice(closeds),
                                       rng.choice(exponents)))
            product = OrdProduct(tuple(atoms))
            for word in words:
                got = member_closed(OWAB, word_to_ord(word), product)
                want = product_brute(AB, atoms, word.letters)
                assert got == want, (product, word)


def ow_pool():
    counts = [ONE, Ordinal.from_int(2), OMEGA, add(OMEGA, ONE)]
    pool = [OrdWord(())]
    for x, c in itertools.product("ab", counts):
        pool.append(ord_word([(Atom(x), c)]))
    for (x, c), (y, d) in itertools.product(
            itertools.product("ab", counts), repeat=2):
        if x != y:
            pool.append(ord_word([(Atom(x), c), (Atom(y), d)]))
    return pool


class TestWordOpenOverOrdinalWords:
    def test_matches_expansion_on_finite_counts(self):
        from noethkit.space import ord_to_word
        UA, UB = BaseOpen(frozenset("a")), BaseOpen(frozenset("b"))
        patterns = [WordOpen(c) for n in range(3)
                    for c in itertools.product(
                        [UA, UB, BaseOpen(frozenset("ab"))], repeat=n)]
        for p in enumerate_points(OWAB, 3):
            expanded = ord_to_word(p)
            for pattern in patterns:
                assert member_open(OWAB, p, pattern) == \
                    member_open(WAB, expanded, pattern), (p, pattern)

    def test_infinite_run_supplies_repeats(self):
        a_omega = ord_word([(Atom("a"), OMEGA)])
        UA = BaseOpen(frozenset("a"))
        assert member_open(OWAB, a_omega, WordOpen((UA, UA, UA)))
        assert not member_open(
            OWAB, a_omega, WordOpen((BaseOpen(frozenset("b")),)))

    def test_finite_run_multiplicity_respected(self):
        a_two = ord_word([(Atom("a"), Ordinal.from_int(2))])
        UA = BaseOpen(frozenset("a"))
        assert member_open(OWAB, a_two, WordOpen((UA, UA)))
        assert not member_open(OWAB, a_two, WordOpen((UA, UA, UA)))


class TestSubstructureOpens:
    def test_ordinal_word_suffixes(self):
        from noethkit.sets import PrefixConcat, UpSubstructure, Whole
        # A suffix starting with b exists in a^w b a but not in b-free words.
        word = ord_word([(Atom("a"), OMEGA), (Atom("b"), ONE), (Atom("a"), ONE)])
        probe = UpSubstructure(PrefixConcat(BaseOpen(frozenset("b")), Whole()))
        space = OrdWords(AB, parse_ordinal("w^2"))
        assert member_open(space, word, probe)
        assert not member_open(space, ord_word([(Atom("a"), OMEGA)]), probe)
        # Cutting inside the infinite run still starts with a.
        probe_a = UpSubstructure(PrefixConcat(BaseOpen(frozenset("a")), Whole()))
        assert member_open(space, word, probe_a)


class TestOrdinalWordOrderLaws:
    def test_quasi_order_on_infinite_runs(self):
        space = OrdWords(AB, parse_ordinal("w^2"))
        pool = ow_pool()
        for u in pool:
            assert point_leq(space, u, u), u
        rel = {(u, v) for u in pool for v in pool if point_leq(space, u, v)}
        for (u, v), (v2, z) in itertools.product(rel, repeat=2):
            if v == v2:
                assert (u, z) in rel, (u, v, z)

    def test_suffixes_are_below(self):
        space = OrdWords(AB, parse_ordinal("w^2"))
        for u in ow_pool():
            for i in range(len(u.segments) + 1):
                assert point_leq(space, ow_suffix_from(u, i), u)


class TestOrdinalOrderLaws:
    def test_thousand_random_triples(self):
        rng = random.Random(20240902)

        def rand_ordinal(depth=1):
            terms = []
            prev = None
            for exp in sorted({rng.randrange(0, 4) for _ in range(rng.randrange(0, 3))},
                              reverse=True):
                terms.append((Ordinal.from_int(exp), rng.randrange(1, 4)))
            return Ordinal(tuple(terms))

        for _ in range(1000):
            a, b, c = rand_ordinal(), rand_ordinal(), rand_ordinal()
            if cmp(a, b) <= 0 and cmp(b, c) <= 0:
                assert cmp(a, c) <= 0
            if cmp(a, b) == 0:
                assert a == b


class TestExpanderMonotonicity:
    def test_stage_opens_regenerate(self):
        cases = [
            (NatShiftExpander(), 8),
            (SubwordExpander(AB), 4),
            (TreeExpander(AB, arity_cap=1), 4),
            (OrdinalSubwordExpander(AB, parse_ordinal("w*2"),
                                    exponents=[ONE]), 4),
        ]
        for expander, bound in cases:
            result = iterate(expander, 3, bound=bound, cap=96)
            oracle = oracle_for(expander.space, bound)
            whole = frozenset(oracle.universe)
            for prev, nxt in zip(result.stages[1:], result.stages[2:]):
                nxt_exts = [oracle.extent(g) for g in nxt.fresh()]
                nxt_exts += [oracle.extent(g) for g in prev.opens()]
                for g in prev.opens():
                    assert in_generated_lattice(oracle.extent(g),
                                                nxt_exts, whole)


class TestPredecessorCompleteness:
    def test_sampled_one_step_predecessors_covered(self):
        rng = random.Random(20240903)
        for trial in range(20):
            places = rng.randrange(1, 4)
            rules = [VASRule(tuple(rng.randrange(0, 2) for _ in range(places)),
                             tuple(rng.randrange(-2, 3) for _ in range(places)))
                     for _ in range(rng.randrange(1, 4))]
            vas = VAS(places, rules)
            target = tuple(rng.randrange(0, 3) for _ in range(places))
            basis = minimize_basis(
                list(vas.pred_basis(target)) + [target], vas.leq)
            for _ in range(100):
                x = tuple(rng.randrange(0, 5) for _ in range(places))
                if any(vas.leq(target, nx) for nx in vas.successors(x)):
                    assert any(vas.leq(b, x) for b in basis), (trial, x)


class TestIncludesSoundnessSweep:
    def test_random_pairs(self):
        UA, UB = BaseOpen(frozenset("a")), BaseOpen(frozenset("b"))
        pool = [
            WordOpen((UA,)), WordOpen((UB,)), WordOpen((UA, UB)),
            WordOpen((UB, UA)), WordOpen((UA, UA, UB)),
            Union((WordOpen((UA,)), UpClosure((Word((Atom("b"), Atom("b"))),)))),
            Intersect((WordOpen((UA,)), WordOpen((UB,)))),
            UpClosure((Word((Atom("a"),)),)),
            UpClosure((Word(()),)),
            ConcatUp(WordOpen((UA,)), WordOpen((UA,))),
        ]
        rng = random.Random(20240904)
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            r = includes(WAB, a, b, bound=4)
            if r.value is True and r.bound is None:
                # Exact claims must hold at every probe bound.
                for probe in (3, 4, 5):
                    oracle = oracle_for(WAB, probe)
                    assert oracle.extent(a) <= oracle.extent(b), (a, b)
            if r.value is False:
                assert r.witness is not None, (a, b)
                assert member_open(WAB, r.witness, a)
                assert not member_open(WAB, r.witness, b)
