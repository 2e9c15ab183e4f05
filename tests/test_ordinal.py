import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethkit.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    add,
    classify,
    cmp,
    format_ordinal,
    from_json,
    is_indecomposable,
    left_subtract,
    limit_finite_split,
    natural_sum,
    parse_ordinal,
    run_cuts,
    to_json,
)
from noethkit.space import (Atom, OrdWord, ord_word, ow_length,
                            ow_suffixes_strictly_after)

W2 = Ordinal.omega_power(Ordinal.from_int(2))
W3 = Ordinal.omega_power(Ordinal.from_int(3))


def tri(c2: int, c1: int, c0: int) -> Ordinal:
    """w^2*c2 + w*c1 + c0, the fragment below w^3 used by the table oracle."""
    terms = []
    if c2:
        terms.append((Ordinal.from_int(2), c2))
    if c1:
        terms.append((ONE, c1))
    if c0:
        terms.append((ZERO, c0))
    return Ordinal(tuple(terms))


# Independent oracle: ordinals below w^3 as coefficient triples, ordered and
# added by polynomial rules that never touch the CNF code paths.

TABLE = [(c2, c1, c0) for c2 in range(4) for c1 in range(4) for c0 in range(4)]
TABLE.sort()  # lexicographic == ordinal order on (c2, c1, c0)


@functools.lru_cache(maxsize=None)
def table_sums(successor_left: bool):
    """b -> the pairs (c, r) of table ordinals with c + r = b, c ascending;
    with successor_left, c runs over the successors d + 1 of the table."""
    sums = {}
    for tc, tr in itertools.product(TABLE, TABLE):
        c = add(tri(*tc), ONE) if successor_left else tri(*tc)
        r = tri(*tr)
        sums.setdefault(add(c, r), []).append((c, r))
    return sums


def tri_add(a, b):
    a2, a1, a0 = a
    b2, b1, b0 = b
    if b2:
        return (a2 + b2, b1, b0)
    if b1:
        return (a2, a1 + b1, b0)
    return (a2, a1, a0 + b0)


def small_ordinals():
    return [tri(*t) for t in TABLE]


@st.composite
def ordinals(draw, depth=1):
    if depth <= 0:
        exps = st.integers(min_value=0, max_value=3).map(Ordinal.from_int)
    else:
        exps = st.one_of(
            st.integers(min_value=0, max_value=3).map(Ordinal.from_int),
            ordinals(depth=depth - 1),
        )
    pairs = draw(st.lists(st.tuples(exps, st.integers(1, 3)), max_size=3))
    pairs.sort(key=lambda p: sorted_key(p[0]), reverse=True)
    terms = []
    for exp, coeff in pairs:
        if terms and terms[-1][0] == exp:
            continue
        terms.append((exp, coeff))
    return Ordinal(tuple(terms))


def sorted_key(a: Ordinal):
    return tuple((sorted_key(e), c) for e, c in a.terms)


class TestCmp:
    def test_zero_equal(self):
        assert cmp(ZERO, ZERO) == 0

    def test_successor_strictly_greater(self):
        assert cmp(OMEGA, add(OMEGA, ONE)) == -1

    def test_omega_squared_beats_omega_five_three(self):
        # Oracle: position in the enumeration table below w^3.
        a = W2
        b = tri(0, 5, 3)
        assert cmp(a, b) == 1

    def test_agrees_with_table_order(self):
        for ta, tb in itertools.product(TABLE[:32], TABLE[:32]):
            want = (ta > tb) - (ta < tb)
            assert cmp(tri(*ta), tri(*tb)) == want

    @given(ordinals(), ordinals(), ordinals())
    def test_total_order_transitive_antisymmetric(self, a, b, c):
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0
        if cmp(a, b) == 0:
            assert a == b

    @given(ordinals(), ordinals())
    def test_operators_agree_with_cmp(self, a, b):
        c = cmp(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)


class TestAdd:
    def test_left_absorption(self):
        assert add(ONE, OMEGA) == OMEGA

    def test_successor(self):
        assert add(OMEGA, ONE) == parse_ordinal("w + 1")

    def test_absorbing_mixed(self):
        # Oracle: concatenating runs of lengths w*2+3 and w+1 has length w*3+1,
        # cross-checked by the triple arithmetic below w^3.
        a = parse_ordinal("w*2 + 3")
        b = parse_ordinal("w + 1")
        assert add(a, b) == parse_ordinal("w*3 + 1")
        assert tri_add((0, 2, 3), (0, 1, 1)) == (0, 3, 1)

    def test_agrees_with_table_addition(self):
        for ta, tb in itertools.product(TABLE[:40], TABLE[:40]):
            assert add(tri(*ta), tri(*tb)) == tri(*tri_add(ta, tb))

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(ordinals())
    def test_zero_units(self, a):
        assert add(a, ZERO) == a
        assert add(ZERO, a) == a


class TestClassify:
    def test_zero(self):
        assert classify(ZERO) == ("zero", None)

    def test_successor(self):
        assert classify(add(OMEGA, ONE)) == ("successor", OMEGA)

    def test_limit(self):
        assert classify(Ordinal.omega_power(Ordinal.from_int(2), 3))[0] == "limit"

    @given(ordinals())
    def test_classify_of_plus_one(self, a):
        kind, pred = classify(add(a, ONE))
        assert kind == "successor" and pred == a


class TestIndecomposable:
    def test_one(self):
        assert is_indecomposable(ONE)

    def test_omega_times_two(self):
        assert not is_indecomposable(parse_ordinal("w*2"))

    def test_omega_to_omega(self):
        # Oracle: no split b = g + d with g, d < b among table splits.
        b = Ordinal.omega_power(OMEGA)
        for tg, td in itertools.product(TABLE, repeat=2):
            g, d = tri(*tg), tri(*td)
            if cmp(g, b) < 0 and cmp(d, b) < 0:
                assert add(g, d) != b
        assert is_indecomposable(b)

    def test_splits_detect_decomposable(self):
        b = parse_ordinal("w + 1")
        assert not is_indecomposable(b)
        assert any(
            add(tri(*tg), tri(*td)) == b and tri(*tg) < b and tri(*td) < b
            for tg, td in itertools.product(TABLE[:32], repeat=2)
        )

    def test_zero_rejected(self):
        with pytest.raises(OrdinalError):
            is_indecomposable(ZERO)


class TestNaturalSum:
    def test_zero_unit(self):
        assert natural_sum(ZERO, OMEGA) == OMEGA

    def test_merge(self):
        # Oracle: merge-and-sort of term lists, via triple addition.
        assert natural_sum(parse_ordinal("w + 1"), OMEGA) == parse_ordinal("w*2 + 1")
        assert tri_add((0, 1, 1), (0, 1, 0)) == (0, 2, 0)  # plain add drops the +1

    def test_agrees_with_componentwise_triples(self):
        for ta, tb in itertools.product(TABLE[:40], TABLE[:40]):
            want = tuple(x + y for x, y in zip(ta, tb))
            assert natural_sum(tri(*ta), tri(*tb)) == tri(*want)

    @given(ordinals(), ordinals())
    def test_commutative(self, a, b):
        assert natural_sum(a, b) == natural_sum(b, a)

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))

    @given(ordinals(), ordinals())
    def test_dominates_ordinal_sum(self, a, b):
        assert cmp(natural_sum(a, b), add(a, b)) >= 0

    @given(ordinals(), ordinals(), ordinals())
    def test_strictly_monotone(self, a, b, c):
        if cmp(a, b) < 0:
            assert cmp(natural_sum(a, c), natural_sum(b, c)) < 0


class TestSyntax:
    @given(ordinals())
    def test_round_trip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a

    def test_spec_shaped_string(self):
        a = parse_ordinal("w^2*3 + w*1 + 2")
        assert a == Ordinal(((Ordinal.from_int(2), 3), (ONE, 1), (ZERO, 2)))
        assert format_ordinal(a) == "w^2*3 + w + 2"

    def test_nested_exponent(self):
        a = parse_ordinal("w^(w + 1)*2")
        assert a.terms[0][0] == parse_ordinal("w + 1")

    def test_rejects_increasing_terms(self):
        with pytest.raises(OrdinalError):
            parse_ordinal("1 + w")

    @given(ordinals())
    def test_json_round_trip(self, a):
        assert from_json(to_json(a)) == a


class TestSubtractionAndCuts:
    @given(ordinals(), ordinals())
    def test_left_subtract_inverts_add(self, a, b):
        assert left_subtract(a, add(a, b)) == b

    def test_limit_finite_split(self):
        assert limit_finite_split(parse_ordinal("w*2 + 3")) == (parse_ordinal("w*2"), 3)
        assert limit_finite_split(OMEGA) == (OMEGA, 0)
        assert limit_finite_split(ZERO) == (ZERO, 0)

    def test_run_cuts_against_table(self):
        # Oracle: one pair per right part r of b, with the least table c
        # such that c + r = b, r strictly decreasing.
        sums = table_sums(False)
        for tb in TABLE:
            b = tri(*tb)
            cuts = run_cuts(b)
            least = {}
            for c, r in sums[b]:  # c ascends, so the first c is the least
                least.setdefault(r, c)
            assert all(add(c, r) == b for c, r in cuts), format_ordinal(b)
            assert dict((r, c) for c, r in cuts) == least, format_ordinal(b)
            rests = [r for _, r in cuts]
            assert all(cmp(x, y) > 0 for x, y in zip(rests, rests[1:]))
            assert cuts[0] == (ZERO, b) and cuts[-1] == (b, ZERO)

    def test_cut_tails_against_table(self):
        # The tails of a run's cuts, read through the suffix rule.  Oracle:
        # dropping the positions <= d of a^b leaves a^r exactly when
        # (d+1) + r = b; a cut at d counts for beta when d < beta, and every
        # position lies below beta past b, which adds the empty suffix.
        sums = table_sums(True)
        for tb in TABLE[:48]:
            b = tri(*tb)
            word = ord_word([(Atom("a"), b)])
            for beta in (tri(*t) for t in TABLE):
                got = [ow_length(s)
                       for s in ow_suffixes_strictly_after(word, beta)]
                want = {r for c, r in sums.get(b, ()) if cmp(c, beta) <= 0}
                if cmp(b, beta) < 0:
                    want.add(ZERO)
                where = (format_ordinal(b), format_ordinal(beta))
                assert len(got) == len(set(got)), where
                assert set(got) == want, where

    def test_cut_tails_bounded(self):
        run = OrdWord(((Atom("a"), parse_ordinal("w*2")),))
        tails = ow_suffixes_strictly_after(run, parse_ordinal("w*2 + 1"))
        assert {ow_length(s) for s in tails} == {parse_ordinal("w*2"), OMEGA, ZERO}
        # Cuts strictly below w can only leave w*2.
        assert ow_suffixes_strictly_after(run, OMEGA) == (run,)

