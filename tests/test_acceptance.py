"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime when it completes (run with `pytest tests/test_acceptance.py -v -s`
to watch the lines as they appear)."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from noethkit.cli import main as cli_main
from noethkit.expanders import (
    NatShiftExpander,
    OrdinalSubwordExpander,
    OrdinalTreeExpander,
    PrefixExpander,
    SubwordExpander,
    TreeExpander,
    apply,
    check_respects_subsets,
    export_dot,
    find_bad_chain,
    iterate,
    trivial_stage,
)
from noethkit.inductive import (
    DivisibilityTable,
    UnfoldExpander,
    check_preorder_stability,
    mu_to_tree,
    mu_to_word,
    trees_functor,
    words_functor,
)
from noethkit.ordinal import OMEGA, ONE, Ordinal, add, parse_ordinal
from noethkit.sets import (
    AtMostOne,
    BaseOpen,
    ComplementOf,
    ConcatUp,
    DownClosure,
    Empty,
    OrdProduct,
    Power,
    PrefixConcat,
    RTimes,
    Triangle,
    Union,
    UpClosure,
    Whole,
    WholeC,
    WordOpen,
    complement_ordinal_product,
    find_good_index,
    normalize_open,
    oracle_for,
    rtimes_rewrite,
    spec_leq,
    spec_leq_restricted,
    member_closed,
    TopologyDesc,
)
from noethkit.space import (
    Atom,
    NatVal,
    Nat,
    OrdTrees,
    OrdWords,
    Trees,
    Word,
    Words,
    discrete,
    enumerate_points,
    finite_qo,
    point_leq,
)
from noethkit.wsts import (
    VAS,
    VASRule,
    backward_coverability,
    forward_coverable,
    result_to_json,
    run_counter_machine,
    system_from_json,
)

from oracles import in_generated_lattice

AB = discrete("a", "b")
WAB = Words(AB)
DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def report(request):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    name = request.node.name.replace("test_criterion_", "criterion ")
    print("\nACCEPTANCE %s: PASS (%.2fs)" % (name, elapsed))


def w(text: str) -> Word:
    return Word(tuple(Atom(c) for c in text))


def ext(space, expr, bound):
    return oracle_for(space, bound).extent(expr)


def test_criterion_1_nat_shift_fixed_point():
    # Stage-k lattice extents equal {empty, up1..upk, whole} at bound 20,
    # for k = 1..10, in under a second.
    start = time.monotonic()
    result = iterate(NatShiftExpander(), 10, bound=20)
    universe = frozenset(NatVal(i) for i in range(21))
    for k in range(1, 11):
        exts = {ext(Nat(), g, 20) for g in result.stages[k].opens()}
        want = {frozenset(), universe}
        want |= {frozenset(NatVal(i) for i in range(j, 21))
                 for j in range(1, k + 1)}
        assert exts == want, k
    assert time.monotonic() - start < 1.0


def test_criterion_2_prefix_rule_bad_chain():
    # The prefix rule yields the strictly increasing length-10 chain of
    # cumulative a^i b cylinders (strictness by extent at bound 12); the
    # subword rule yields nothing through stage 5.
    start = time.monotonic()
    chain = find_bad_chain(PrefixExpander(AB), 10, bound=12, cap=4096)
    assert chain is not None and len(chain.picks) == 10
    for k, pick in enumerate(chain.picks):
        cylinder = Whole()
        for c in reversed("a" * k + "b"):
            cylinder = PrefixConcat(BaseOpen(frozenset(c)), cylinder)
        assert ext(WAB, pick, 12) == ext(WAB, cylinder, 12), k
    union_exts = [ext(WAB, u, 12) for u in chain.unions]
    for small, big in zip(union_exts, union_exts[1:]):
        assert small < big
    assert find_bad_chain(SubwordExpander(AB), 5, bound=6) is None
    assert time.monotonic() - start < 10.0


def test_criterion_3_figure_lattice_reproduction():
    # The stage-2 subword lattice matches the frozen fixture graph exactly,
    # including both diagonal inclusions into the one-letter patterns.
    stage2 = iterate(SubwordExpander(AB), 2, bound=6).stages[2]
    dot = export_dot(stage2, bound=6)
    fixture = (DATA / "subword_stage2.dot").read_text()
    assert dot == fixture
    edges = {tuple(line.strip().rstrip(";").split(" -> "))
             for line in dot.splitlines() if "->" in line}
    nodes = {line.strip().rstrip(";") for line in dot.splitlines()
             if line.strip().startswith('"') and "->" not in line}
    assert len(nodes) == 8
    assert len(edges) == 12
    assert ('"(wordopen (base a) (base b))"', '"(wordopen (base b))"') in edges
    assert ('"(wordopen (base b) (base a))"', '"(wordopen (base a))"') in edges


def test_criterion_4_respects_subsets_contrast():
    # The prefix rule fails the restriction equation on the cylinder
    # carriers, reproducing the classic mismatch; the four word/tree rules
    # and the words unfolding pass on 20 random (stage <= 3, carrier) pairs.
    start = time.monotonic()
    UA, UB = BaseOpen(frozenset("a")), BaseOpen(frozenset("b"))

    stage1 = apply(PrefixExpander(AB), trivial_stage(WAB), bound=6)
    # Carrier one: the complement of the a-cylinder.
    b_side_report = check_respects_subsets(PrefixExpander(AB), stage1,
                                           ComplementOf(PrefixConcat(UA, Whole())),
                                           bound=6)
    assert not b_side_report.equal
    # Carrier two, the mirror image (complement of the b-cylinder): both
    # orders keep the aa-cylinder, but refining the restriction loses the
    # ab-cylinder that restricting the refinement retains.
    a_side_report = check_respects_subsets(PrefixExpander(AB), stage1,
                                           ComplementOf(PrefixConcat(UB, Whole())),
                                           bound=6)
    assert not a_side_report.equal
    aa = ext(WAB, PrefixConcat(UA, PrefixConcat(UA, Whole())), 6)
    ab = ext(WAB, PrefixConcat(UA, PrefixConcat(UB, Whole())), 6)
    left_exts = {frozenset(pts) for _, pts in a_side_report.left_only}
    assert ab in left_exts and aa not in left_exts

    cases = [
        (SubwordExpander(AB), Words(AB), 4, 128),
        (TreeExpander(AB, arity_cap=1), Trees(AB), 4, 128),
        (OrdinalSubwordExpander(AB, parse_ordinal("w*2"),
                                exponents=[ONE, OMEGA]),
         OrdWords(AB, parse_ordinal("w*2")), 4, 96),
        (OrdinalTreeExpander(AB, OMEGA, exponents=[ONE], arity_cap=1),
         OrdTrees(AB, OMEGA), 3, 96),
        (UnfoldExpander(words_functor(AB)), Words(AB), 4, 128),
    ]
    rng = random.Random(20240819)
    for expander, space, bound, cap in cases:
        stages = iterate(expander, 3, bound=bound, cap=cap).stages
        for trial in range(20):
            stage = stages[rng.randrange(1, 4)]
            gens = [g for g in stage.opens() if not isinstance(g, Empty)]
            picked = [g for g in gens if rng.random() < 0.4]
            h = ComplementOf(normalize_open(Union(tuple(picked)))) \
                if picked else WholeC()
            report = check_respects_subsets(expander, stage, h, bound=bound,
                                            cap=cap)
            assert report.equal, (type(expander).__name__, trial)
    assert time.monotonic() - start < 60.0


def test_criterion_5_specialisation_of_restriction():
    # Restricted specialisation computed from the definition equals the
    # closed-carrier formula on Alexandroff posets of size <= 6.
    rng = random.Random(20240820)
    names = ["a", "b", "c", "d", "e", "f"]
    checked = 0
    for trial in range(20):
        k = rng.randrange(2, 7)
        elems = names[:k]
        pairs = [(x, y) for x in elems for y in elems
                 if x != y and rng.random() < 0.35]
        base = finite_qo(elems, pairs)
        t = TopologyDesc(base, tuple(UpClosure((Atom(x),)) for x in elems))
        seeds = [x for x in elems if rng.random() < 0.5]
        h = DownClosure(tuple(Atom(x) for x in base.down_set(seeds)))
        for x, y in itertools.product(elems, repeat=2):
            px, py = Atom(x), Atom(y)
            got = spec_leq_restricted(t, h, px, py, bound=3)
            want = (not member_closed(base, px, h)) or (
                spec_leq(t, px, py) and member_closed(base, py, h))
            assert got == want, (trial, x, y)
            checked += 1
    assert checked > 0


def test_criterion_6_ordinal_product_complements():
    # Thirty random ordinal products over two letters with exponents from
    # {1, 2, 3, w, w+1}: the product and its computed complement partition
    # the universe of words of length <= 4, and the three prefix-guard
    # rewrite identities hold extensionally at bound 4.
    space = OrdWords(AB, parse_ordinal("w*2"))
    oracle = oracle_for(space, 4)
    universe = frozenset(oracle.universe)
    rng = random.Random(20240821)
    exponents = [ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA,
                 add(OMEGA, ONE)]
    closeds = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),)), WholeC()]
    for _ in range(30):
        atoms = []
        for _ in range(rng.randrange(0, 4)):
            if rng.random() < 0.4:
                atoms.append(AtMostOne(rng.choice(closeds)))
            else:
                atoms.append(Power(rng.choice(closeds), rng.choice(exponents)))
        product = OrdProduct(tuple(atoms))
        complement = complement_ordinal_product(space, product)
        inside = oracle.extent(product)
        outside = oracle.extent(complement)
        assert inside | outside == universe, product
        assert not (inside & outside), product

    UA, UB = BaseOpen(frozenset("a")), BaseOpen(frozenset("b"))
    shapes = [
        WordOpen((UA,)), WordOpen((UB,)), WordOpen((UA, UB)),
        ConcatUp(WordOpen((UB,)), WordOpen((UA,))),
        Triangle(Ordinal.from_int(2), WordOpen((UA,))),
        Triangle(OMEGA, WordOpen((UB,))),
        Triangle(add(OMEGA, ONE), WordOpen((UB,))),
    ]
    fs = [DownClosure((Atom("a"),)), DownClosure((Atom("b"),))]
    for _ in range(30):
        f = rng.choice(fs)
        u = rng.choice(shapes)
        rewritten = rtimes_rewrite(space, f, u)
        assert oracle.extent(rewritten) == oracle.extent(RTimes(f, u)), (f, u)


def test_criterion_7_divisibility_coincidence():
    # The staged unfold preorder equals the subsequence embedding on all
    # word pairs of length <= 4 and the tree embedding on all trees with
    # <= 4 nodes; the preorder absorbs the substructure order at every
    # tested stage; and the words unfold rule matches the subword rule's
    # stage-3 lattice at bound 3.
    start = time.monotonic()
    wf = words_functor(AB)
    table = DivisibilityTable(wf, 5)
    words = table.universe()
    assert len(words) == 31
    for x, y in itertools.product(words, repeat=2):
        assert table.leq(x, y) == point_leq(WAB, mu_to_word(x), mu_to_word(y))

    tf = trees_functor(AB)
    ttable = DivisibilityTable(tf, 4, size_cap=8)
    trees = ttable.universe()
    assert len(trees) == 102
    tspace = Trees(AB)
    for x, y in itertools.product(trees, repeat=2):
        assert ttable.leq(x, y) == point_leq(tspace, mu_to_tree(x),
                                             mu_to_tree(y))

    for n in range(1, 6):
        assert check_preorder_stability(wf, n)
    for n in range(1, 5):
        assert check_preorder_stability(tf, n, size_cap=8)

    bound = 3
    unfold = iterate(UnfoldExpander(wf), 3, bound=bound)
    subword = iterate(SubwordExpander(AB), 3, bound=bound)
    oracle = oracle_for(WAB, bound)
    whole = frozenset(oracle.universe)
    ga = [oracle.extent(g) for g in unfold.stages[3].opens()]
    gb = [oracle.extent(g) for g in subword.stages[3].opens()]
    assert all(in_generated_lattice(e, gb, whole) for e in ga)
    assert all(in_generated_lattice(e, ga, whole) for e in gb)
    assert time.monotonic() - start < 120.0


def test_criterion_8_counter_runs_and_coverability():
    # Every counter-machine run on the start grid terminates with a bad
    # trace under twenty seeded random schedules; backward coverability
    # agrees with bounded forward search on fifty random systems and on the
    # frozen three-place net fixture.
    start = time.monotonic()
    rng = random.Random(424242)
    schedules = ["random:%d" % rng.randrange(10 ** 9) for _ in range(20)]
    for a, b, c in itertools.product(range(7), repeat=3):
        for schedule in schedules:
            trace = run_counter_machine((a, b, c), schedule)
            assert trace.states  # badness of every prefix checked inside

    sys_rng = random.Random(20240822)
    for trial in range(50):
        places = sys_rng.randrange(1, 4)
        rules = [VASRule(tuple(sys_rng.randrange(0, 2) for _ in range(places)),
                         tuple(sys_rng.randrange(-2, 3) for _ in range(places)))
                 for _ in range(sys_rng.randrange(1, 5))]
        vas = VAS(places, rules)
        init = tuple(sys_rng.randrange(0, 3) for _ in range(places))
        target = tuple(sys_rng.randrange(0, 4) for _ in range(places))
        got = backward_coverability(vas, init, [target], fuel=20000).verdict
        want = forward_coverable(vas, init, [target], state_cap=8)
        assert (got == "coverable") == want, (trial, rules, init, target)

    doc = json.loads((DATA / "petri3.json").read_text())
    system, init, targets = system_from_json(doc)
    result = backward_coverability(system, init, targets)
    frozen = json.loads((DATA / "petri3_verdict.json").read_text())
    assert result_to_json(result, fuel=10 ** 6) == frozen
    assert forward_coverable(system, init, targets, state_cap=8) == \
        (result.verdict == "coverable")
    assert time.monotonic() - start < 120.0


def test_criterion_8b_cover_cli_matches_fixture(capsys):
    code = cli_main(["cover", str(DATA / "petri3.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == json.loads((DATA / "petri3_verdict.json").read_text())


def test_criterion_9_goodness_oracle_soundness():
    # 200 seeded random sequences of word up-closures: the goodness oracle
    # always fires (two letters form a wqo), and each reported inclusion is
    # confirmed by extents at bound 8.
    rng = random.Random(20240823)
    oracle = oracle_for(WAB, 8)
    for trial in range(200):
        seq = []
        for _ in range(140):
            word = w("".join(rng.choice("ab")
                             for _ in range(rng.randrange(0, 7))))
            seq.append(UpClosure((word,)))
        hit = find_good_index(WAB, seq)
        assert hit is not None, trial
        index, evidence = hit
        # The verdict must come from an exact rule, not a bounded fallback.
        assert evidence.via in ("up-closure", "syntactic")
        assert evidence.bound is None
        union = oracle.extent(Union(tuple(seq[:index])))
        assert oracle.extent(seq[index]) <= union, trial
