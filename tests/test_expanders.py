import itertools

import pytest

from noethkit.expanders import (
    ExpanderError,
    NatShiftExpander,
    OrdinalSubwordExpander,
    OrdinalTreeExpander,
    PrefixExpander,
    SubwordExpander,
    TreeExpander,
    apply,
    check_noetherian_stage,
    check_respects_subsets,
    depth_of,
    export_dot,
    find_bad_chain,
    iterate,
    tdown,
    trivial_stage,
)
from noethkit.ordinal import ONE, parse_ordinal
from noethkit.sets import (
    BaseOpen,
    ComplementOf,
    PrefixConcat,
    SetError,
    Union,
    UpClosure,
    Whole,
    WholeC,
    WordOpen,
    extent,
    find_good_index,
    includes,
    normalize_open,
    oracle_for,
)
from noethkit.space import Atom, NatVal, Nat, Word, Words, discrete

AB = discrete("a", "b")
WAB = Words(AB)
UA = BaseOpen(frozenset("a"))
UB = BaseOpen(frozenset("b"))


def w(text: str) -> Word:
    return Word(tuple(Atom(c) for c in text))


def ext_set(space, u, bound):
    return frozenset(extent(space, u, bound))


class TestBound:
    """A negative bound is an error, not an empty universe on which every
    stage is the last and every restriction agrees."""

    def test_iterate(self):
        with pytest.raises(SetError, match="at least 0, got -1"):
            iterate(SubwordExpander(AB), 2, bound=-1)
        result = iterate(SubwordExpander(AB), 2, bound=0)
        assert (result.fixed_point_at, result.bound) == (1, 0)

    def test_check_respects_subsets(self):
        stage1 = apply(PrefixExpander(AB), trivial_stage(WAB), bound=3)
        with pytest.raises(SetError, match="at least 0, got -1"):
            check_respects_subsets(PrefixExpander(AB), stage1, WholeC(),
                                   bound=-1)
        assert check_respects_subsets(PrefixExpander(AB), stage1, WholeC(),
                                      bound=0).equal


class TestCounts:
    """A negative step count or chain length and a cap below 1 are errors,
    not a lone trivial stage, an empty chain or a capped stage."""

    def test_apply(self):
        for cap in (0, -5):
            with pytest.raises(ExpanderError,
                               match="cap must be at least 1, got %d" % cap):
                apply(SubwordExpander(AB), trivial_stage(WAB), 4, cap=cap)
        assert apply(SubwordExpander(AB), trivial_stage(WAB), 4,
                     cap=1).capped

    def test_iterate(self):
        with pytest.raises(ExpanderError,
                           match="steps must be at least 0, got -3"):
            iterate(SubwordExpander(AB), -3, 4)
        with pytest.raises(ExpanderError, match="cap must be at least 1"):
            iterate(SubwordExpander(AB), 0, 4, cap=0)
        assert len(iterate(SubwordExpander(AB), 0, 4).stages) == 1

    def test_find_bad_chain(self):
        with pytest.raises(ExpanderError,
                           match="length must be at least 0, got -1"):
            find_bad_chain(SubwordExpander(AB), -1, 4)
        with pytest.raises(ExpanderError, match="cap must be at least 1"):
            find_bad_chain(SubwordExpander(AB), 0, 4, cap=0)
        assert find_bad_chain(SubwordExpander(AB), 0, 4).picks == ()


class TestNatShift:
    def test_first_stage(self):
        stage = apply(NatShiftExpander(), trivial_stage(Nat()), bound=10)
        exts = {ext_set(Nat(), g, 10) for g in stage.opens()}
        universe = frozenset(NatVal(i) for i in range(11))
        assert exts == {frozenset(), universe,
                        frozenset(NatVal(i) for i in range(1, 11))}

    def test_stage_k_lattice(self):
        result = iterate(NatShiftExpander(), 5, bound=10)
        for k, stage in enumerate(result.stages):
            exts = {ext_set(Nat(), g, 10) for g in stage.opens()}
            want = {frozenset(), frozenset(NatVal(i) for i in range(11))}
            want |= {frozenset(NatVal(i) for i in range(j, 11))
                     for j in range(1, k + 1)}
            assert exts == want, k

    def test_no_fixed_point_before_bound(self):
        result = iterate(NatShiftExpander(), 5, bound=10)
        assert result.fixed_point_at is None


class TestPrefixRule:
    def test_first_stage_matches_cylinders(self):
        stage = apply(PrefixExpander(AB), trivial_stage(WAB), bound=6)
        exts = {ext_set(WAB, g, 6) for g in stage.opens()}
        a_cyl = frozenset(p for p in oracle_for(WAB, 6).universe
                          if p.letters and p.letters[0] == Atom("a"))
        b_cyl = frozenset(p for p in oracle_for(WAB, 6).universe
                          if p.letters and p.letters[0] == Atom("b"))
        assert exts == {frozenset(), frozenset(oracle_for(WAB, 6).universe),
                        a_cyl, b_cyl}

    def test_stage_node_counts_double(self):
        # The subbasic poset doubles each step: bottom and top plus the
        # 2 + 4 + ... + 2^k letter cylinders.
        stage = trivial_stage(WAB)
        for k in range(1, 5):
            stage = apply(PrefixExpander(AB), stage, bound=6)
            report = check_noetherian_stage(stage, bound=6)
            assert report.node_count == 2 ** (k + 1), k
        two_letter = ext_set(WAB, PrefixConcat(UA, PrefixConcat(UB, Whole())), 6)
        assert two_letter in {ext_set(WAB, g, 6) for g in stage.opens()}

    def test_per_stage_reports_finite_for_all_rules(self):
        from noethkit.space import OrdWords, Trees
        from noethkit.ordinal import parse_ordinal
        rules = [
            (SubwordExpander(AB), 4),
            (TreeExpander(AB, arity_cap=1), 4),
            (OrdinalSubwordExpander(AB, parse_ordinal("w*2"),
                                    exponents=[ONE]), 4),
            (OrdinalTreeExpander(AB, parse_ordinal("w"), exponents=[ONE],
                                 arity_cap=1), 3),
        ]
        for expander, bound in rules:
            stage = iterate(expander, 2, bound=bound, cap=64).stages[2]
            report = check_noetherian_stage(stage, bound=bound)
            assert report.width >= 1
            assert len(report.antichain) == report.width


class TestSubwordRule:
    def test_second_stage_is_the_eight_node_lattice(self):
        result = iterate(SubwordExpander(AB), 2, bound=6)
        report = check_noetherian_stage(result.stages[2], bound=6)
        assert report.node_count == 8
        assert report.width == 4

    def test_red_arrow_inclusions_present(self):
        stage2 = iterate(SubwordExpander(AB), 2, bound=6).stages[2]
        opens = {ext_set(WAB, g, 6): g for g in stage2.opens()}
        ab = WordOpen((UA, UB))
        ba = WordOpen((UB, UA))
        assert ext_set(WAB, ab, 6) in opens
        assert includes(WAB, ab, WordOpen((UB,)), bound=6).value is True
        assert includes(WAB, ba, WordOpen((UA,)), bound=6).value is True

    def test_fixed_point_detected(self):
        bound = 3
        result = iterate(SubwordExpander(AB), bound + 2, bound=bound)
        assert result.fixed_point_at is not None
        assert result.fixed_point_at <= bound + 2

    def test_capped_stage_is_not_a_fixed_point(self):
        # From step 3 on the cap, not the rule, stops the growth, so the
        # unchanged lattices of steps 3 to 6 are no fixed point.
        result = iterate(SubwordExpander(AB), 6, bound=5, cap=20)
        assert [s.capped for s in result.stages] == [False] * 3 + [True] * 4
        assert result.fixed_point_at is None

    def test_monotone_stages(self):
        result = iterate(SubwordExpander(AB), 3, bound=4)
        for prev, nxt in zip(result.stages, result.stages[1:]):
            prev_exts = {ext_set(WAB, g, 4) for g in prev.opens()}
            nxt_exts = {ext_set(WAB, g, 4) for g in nxt.opens()}
            assert prev_exts <= nxt_exts


class TestGoodnessAndBadChains:
    def test_good_index_on_up_closures(self):
        seq = [UpClosure((NatVal(2),)), UpClosure((NatVal(1),)),
               UpClosure((NatVal(3),))]
        hit = find_good_index(Nat(), seq, bound=8)
        assert hit is not None and hit[0] == 2

    def test_prefix_rule_has_the_diagonal_chain(self):
        chain = find_bad_chain(PrefixExpander(AB), 5, bound=6)
        assert chain is not None
        # The picks are b, ab, aab, aaab, aaaab prefix cylinders.
        for k, pick in enumerate(chain.picks):
            want = ext_set(WAB, _prefix_cylinder("a" * k + "b"), 6)
            assert ext_set(WAB, pick, 6) == want, k
        exts = [ext_set(WAB, u, 6) for u in chain.unions]
        for small, big in zip(exts, exts[1:]):
            assert small < big

    def test_subword_rule_has_no_chain(self):
        assert find_bad_chain(SubwordExpander(AB), 5, bound=6) is None

    def test_nat_shift_has_no_chain(self):
        assert find_bad_chain(NatShiftExpander(), 2, bound=12) is None

    def test_cylinder_diagonal_is_bad(self):
        # The a^i b cylinders are pairwise incomparable, so the goodness
        # oracle never fires on them (at a bound that can tell them apart).
        seq = [_prefix_cylinder("a" * i + "b") for i in range(7)]
        assert find_good_index(WAB, seq, bound=8) is None


def _prefix_cylinder(text):
    u = Whole()
    for c in reversed(text):
        u = PrefixConcat(BaseOpen(frozenset(c)), u)
    return u


class TestRespectsSubsets:
    def test_prefix_rule_fails_on_the_cylinder_carrier(self):
        stage1 = apply(PrefixExpander(AB), trivial_stage(WAB), bound=6)
        # Carrier: complement of the b-cylinder, i.e. the empty word plus
        # the a-cylinder; closed in stage 1.
        h = ComplementOf(PrefixConcat(UB, Whole()))
        report = check_respects_subsets(PrefixExpander(AB), stage1, h, bound=6)
        assert not report.equal
        aa = ext_set(WAB, _prefix_cylinder("aa"), 6)
        ab = ext_set(WAB, _prefix_cylinder("ab"), 6)
        left = {frozenset(pts) for _, pts in report.left_only}
        assert ab in left
        right_families = {frozenset(pts) for _, pts in report.right_only}
        assert ab not in right_families
        # Both sides agree on the aa-cylinder: it is not reported.
        assert aa not in left

    def test_carrier_is_a_restricted_source(self):
        # The rule applied to the carrier H = X /\ H itself gives a.H, the
        # word a and the aa-cylinder, whose cut no generator over the whole
        # space yields: it is right-only exactly when H is a source.
        stage1 = apply(PrefixExpander(AB), trivial_stage(WAB), bound=5)
        h = ComplementOf(PrefixConcat(UB, Whole()))
        report = check_respects_subsets(PrefixExpander(AB), stage1, h, bound=5)
        a_h = {w("a")} | ext_set(WAB, _prefix_cylinder("aa"), 5)
        assert [set(pts) for _, pts in report.right_only] == [a_h]

    def test_prefix_rule_fails_on_the_mirror_carrier(self):
        stage1 = apply(PrefixExpander(AB), trivial_stage(WAB), bound=6)
        h = ComplementOf(PrefixConcat(UA, Whole()))
        report = check_respects_subsets(PrefixExpander(AB), stage1, h, bound=6)
        assert not report.equal

    def test_subword_rule_respects_subsets(self):
        stage1 = apply(SubwordExpander(AB), trivial_stage(WAB), bound=5)
        h = ComplementOf(WordOpen((UA,)))
        report = check_respects_subsets(SubwordExpander(AB), stage1, h, bound=5)
        assert report.equal and report.contained_precheck

    def test_whole_carrier_trivially_equal(self):
        from noethkit.sets import WholeC
        stage1 = apply(SubwordExpander(AB), trivial_stage(WAB), bound=4)
        report = check_respects_subsets(SubwordExpander(AB), stage1, WholeC(),
                                        bound=4)
        assert report.equal

    def test_tree_rule_respects_subsets(self):
        from noethkit.sets import TreeOpen
        from noethkit.space import Trees
        expander = TreeExpander(AB, arity_cap=1)
        stage1 = apply(expander, trivial_stage(Trees(AB)), bound=4)
        h = ComplementOf(TreeOpen(UA, Whole()))
        report = check_respects_subsets(expander, stage1, h, bound=4)
        assert report.equal

    def test_ordinal_subword_rule_respects_subsets(self):
        from noethkit.space import OrdWords
        alpha = parse_ordinal("w*2")
        expander = OrdinalSubwordExpander(AB, alpha,
                                          exponents=[ONE, parse_ordinal("w")])
        stage1 = apply(expander, trivial_stage(OrdWords(AB, alpha)), bound=4,
                       cap=128)
        h = ComplementOf(WordOpen((UA,)))
        report = check_respects_subsets(expander, stage1, h, bound=4, cap=128)
        assert report.equal


class TestStageReports:
    def test_tdown_strips_fresh_generators(self):
        result = iterate(SubwordExpander(AB), 2, bound=5)
        stage2 = result.stages[2]
        target = WordOpen((UA, UB))
        down = tdown(stage2, target, bound=5)
        assert depth_of(stage2, target, 5) == 2
        assert all(d <= 1 for _, d in down.generators)
        target_ext = ext_set(WAB, target, 5)
        assert all(ext_set(WAB, g, 5) != target_ext for g in down.opens())

    def test_depth_by_extent_match(self):
        # Neither open is a generator's normal form: (up (word a)) has the
        # extent of the stage-1 generator <a>, and (up (word a a a)) has the
        # extent of no generator.
        stage1 = apply(SubwordExpander(AB), trivial_stage(WAB), bound=4)
        assert depth_of(stage1, UpClosure((w("a"),)), 4) == 1
        with pytest.raises(ExpanderError):
            depth_of(stage1, UpClosure((w("aaa"),)), 4)

    def test_dot_export_shape(self):
        result = iterate(NatShiftExpander(), 2, bound=8)
        dot = export_dot(result.stages[2], bound=8)
        assert dot.count("->") == 3  # chain: empty -> up2 -> up1 -> whole

    def test_dot_deterministic(self):
        stage = iterate(SubwordExpander(AB), 2, bound=5).stages[2]
        assert export_dot(stage, 5) == export_dot(stage, 5)

    def test_trivial_dot(self):
        dot = export_dot(trivial_stage(WAB), bound=3)
        assert dot.count("->") == 1
