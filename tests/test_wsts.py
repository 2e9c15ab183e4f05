import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noethkit import space as space_mod, wsts as wsts_mod
from noethkit.sets import UpClosure, up_closure
from noethkit.space import Atom, Word, Words, canonical_key, discrete, point_leq
from noethkit.wsts import (
    COUNTER_RULES,
    ChannelRule,
    CoverabilityResult,
    FuelExhausted,
    LossyChannelSystem,
    VAS,
    VASRule,
    WstsError,
    _basis_open,
    backward_coverability,
    forward_coverable,
    minimize_basis,
    result_to_json,
    run_counter_machine,
    system_from_json,
)

from oracles import minimal_brute, saturate_brute


class TestCounterMachine:
    def test_zero_start_stops_immediately(self):
        trace = run_counter_machine((0, 0, 0), "l")
        assert trace.states == ((0, 0, 0),)
        assert trace.stopping_rule == "l"

    def test_frozen_alternating_trace(self):
        # Recorded once by direct simulation of the alternating schedule.
        trace = run_counter_machine((2, 1, 1), "lr")
        assert trace.states == ((2, 1, 1), (1, 1, 2), (4, 0, 1), (3, 0, 2))
        assert trace.stopping_rule == "r"

    def test_every_prefix_is_bad(self):
        for schedule in ("l", "r", "lr", "rl", "llr", "random:5"):
            trace = run_counter_machine((3, 2, 2), schedule)
            states = trace.states
            for i, j in itertools.combinations(range(len(states)), 2):
                assert not all(x <= y for x, y in zip(states[i], states[j]))

    def test_terminates_on_grid(self):
        rng = random.Random(99)
        schedules = ["l", "r", "lr", "rl"] + [
            "random:%d" % rng.randrange(10 ** 6) for _ in range(6)]
        for a, b, c in itertools.product(range(0, 7, 3), repeat=3):
            for schedule in schedules:
                run_counter_machine((a, b, c), schedule)

    def test_rejects_bad_schedule(self):
        with pytest.raises(WstsError):
            run_counter_machine((1, 1, 1), "lx")


class TestMinimize:
    def test_antichain(self):
        leq = lambda s, t: all(x <= y for x, y in zip(s, t))
        basis = minimize_basis([(1, 2), (2, 1), (2, 2), (1, 2)], leq)
        assert basis == ((1, 2), (2, 1))


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 2)), max_size=12))
    def test_componentwise_order_matches_brute_force(self, states):
        leq = lambda s, t: all(x <= y for x, y in zip(s, t))
        assert minimize_basis(states, leq) == minimal_brute(states, leq)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    max_size=12))
    def test_one_state_per_equivalence_class(self, states):
        # Equal token counts are equivalent: the least such state is kept.
        leq = lambda s, t: sum(s) <= sum(t)
        assert minimize_basis(states, leq) == minimal_brute(states, leq)
        assert len(minimize_basis(states, leq)) == min(len(states), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("ab", max_size=4), max_size=10))
    def test_subword_order_matches_brute_force(self, texts):
        space = Words(discrete("a", "b"))
        words = [Word(tuple(Atom(c) for c in text)) for text in texts]
        leq = lambda u, v: point_leq(space, u, v)
        assert minimize_basis(words, leq, canonical_key) == \
            minimal_brute(words, leq, canonical_key)


class TestVAS:
    def test_pred_basis_formula(self):
        vas = VAS(3, [VASRule((1, 0, 0), (-1, 0, 2))])
        preds = list(vas.pred_basis((0, 0, 1)))
        assert preds == [(1, 0, 0)]

    def test_one_step_coverable(self):
        vas = VAS(2, [VASRule((1, 0), (-1, 1))])
        result = backward_coverability(vas, (1, 0), [(0, 1)])
        assert result.verdict == "coverable"
        assert result.witness_length == 1

    def test_target_covering_init_is_zero_steps(self):
        vas = VAS(2, [VASRule((1, 0), (-1, 1))])
        result = backward_coverability(vas, (2, 2), [(2, 2)])
        assert result.verdict == "coverable" and result.witness_length == 0

    def test_uncoverable_with_invariant(self):
        # Tokens only drain: (0, 5) can never reach two tokens in place 1.
        vas = VAS(2, [VASRule((0, 1), (1, -1))])
        result = backward_coverability(vas, (0, 1), [(2, 0)])
        assert result.verdict == "uncoverable"
        assert all(not vas.leq(b, (0, 1)) for b in result.basis)

    def test_goodness_certificate_present(self):
        vas = VAS(2, [VASRule((1, 0), (-1, 1)), VASRule((0, 1), (1, -1))])
        result = backward_coverability(vas, (1, 1), [(3, 0)])
        assert result.goodness_index == result.rounds + 1 or \
            result.goodness_index is not None

    def test_backward_agrees_with_forward_on_random_systems(self):
        rng = random.Random(20240818)
        for trial in range(50):
            places = rng.randrange(1, 4)
            n_rules = rng.randrange(1, 5)
            rules = []
            for _ in range(n_rules):
                delta = tuple(rng.randrange(-2, 3) for _ in range(places))
                guard = tuple(rng.randrange(0, 2) for _ in range(places))
                rules.append(VASRule(guard, delta))
            vas = VAS(places, rules)
            init = tuple(rng.randrange(0, 3) for _ in range(places))
            target = tuple(rng.randrange(0, 4) for _ in range(places))
            got = backward_coverability(vas, init, [target],
                                        fuel=20000).verdict
            want = forward_coverable(vas, init, [target], state_cap=8)
            # The bounded forward search can only miss covers that need large
            # intermediate markings; on these small systems it is exact.
            assert (got == "coverable") == want, (trial, rules, init, target)

    def test_monotone_steps_on_samples(self):
        from noethkit.wsts import validate_monotonicity
        rng = random.Random(3)
        vas = VAS(3, [VASRule((1, 0, 0), (-1, 2, 0)),
                      VASRule((0, 1, 1), (1, -1, -1))])
        samples = [tuple(rng.randrange(0, 4) for _ in range(3))
                   for _ in range(200)]
        bumps = [tuple(a + rng.randrange(0, 3) for a in x) for x in samples]
        validate_monotonicity(vas, samples, bumps)

    def test_fuel_exhaustion_reports_partial_basis(self):
        # pred of up(k) under +1 steps is (k-1): reaching up(10) backward
        # needs ten insertions, more than the granted fuel.
        vas = VAS(1, [VASRule((0,), (1,))])
        with pytest.raises(FuelExhausted) as info:
            backward_coverability(vas, (0,), [(10,)], fuel=5)
        assert info.value.partial_basis


class TestLossyChannel:
    def make_system(self):
        rules = [
            ChannelRule("q0", "send", "x", "q1"),
            ChannelRule("q1", "send", "y", "q0"),
            ChannelRule("q0", "recv", "x", "q2"),
            ChannelRule("q2", "nop", None, "q0"),
        ]
        return LossyChannelSystem(["q0", "q1", "q2"], ["x", "y"], rules)

    def test_recv_pred_prepends(self):
        sys = self.make_system()
        preds = set(sys.pred_basis(("q2", ("y",))))
        assert ("q0", ("x", "y")) in preds

    def test_send_pred_drops_last(self):
        sys = self.make_system()
        preds = set(sys.pred_basis(("q1", ("x",))))
        assert ("q0", ()) in preds

    def test_backward_agrees_with_forward(self):
        sys = self.make_system()
        cases = [
            (("q0", ()), [("q2", ())]),
            (("q0", ()), [("q0", ("y", "x"))]),
            (("q2", ("y",)), [("q0", ("x",))]),
            (("q1", ()), [("q2", ("x", "x"))]),
        ]
        for init, targets in cases:
            got = backward_coverability(sys, init, targets).verdict
            want = forward_coverable(sys, init, targets, state_cap=4)
            assert (got == "coverable") == want, (init, targets)

    def test_insertion_closure_example(self):
        # Predecessors of reaching q0 with channel "x" include q1 states
        # whose channel already carries the x.
        sys = self.make_system()
        result = backward_coverability(sys, ("q0", ("x",)), [("q0", ("x",))])
        assert result.verdict == "coverable"

    def test_channel_letter_outside_the_alphabet(self):
        # The order of the channels is point_leq's, domain error included.
        sys = self.make_system()
        assert sys.leq(("q0", ("x",)), ("q0", ("y", "x")))
        assert not sys.leq(("q0", ("x", "x")), ("q0", ("y", "x")))
        with pytest.raises(space_mod.SpaceError, match=(
                r"point Word\(letters=\(Atom\(name='z'\),\)\) does not "
                r"typecheck in Words")):
            sys.leq(("q0", ()), ("q0", ("z",)))
        with pytest.raises(space_mod.SpaceError, match="name='z'"):
            backward_coverability(sys, ("q0", ("z",)), [("q0", ("x",))])


class TestJsonRoundTrip:
    def test_vas_document(self):
        doc = {
            "family": "vas",
            "places": 2,
            "rules": [{"guard": [1, 0], "delta": [-1, 1]}],
            "init": [1, 0],
            "target": [[0, 1]],
        }
        system, init, targets = system_from_json(doc)
        result = backward_coverability(system, init, targets)
        out = result_to_json(result, fuel=10 ** 6)
        assert out["verdict"] == "coverable"
        assert out["witness_length"] == 1
        assert out["certificate"]["goodness_index"] == result.goodness_index

    def test_lossy_document(self):
        doc = {
            "family": "lossy",
            "locations": ["q0", "q1"],
            "alphabet": ["x"],
            "rules": [{"from": "q0", "op": "send", "letter": "x", "to": "q1"}],
            "init": {"location": "q0"},
            "target": [{"location": "q1", "channel": ["x"]}],
        }
        system, init, targets = system_from_json(doc)
        assert backward_coverability(system, init, targets).verdict == "coverable"


class TestBasisOpen:
    """The saturated basis is an antichain of the point order, so the basis
    open needs no second minimisation."""

    def cases(self):
        petri = system_from_json(json.loads(
            (Path(__file__).parent / "data" / "petri3.json").read_text()))
        lossy = TestLossyChannel().make_system()
        return [petri,
                (lossy, ("q0", ()), [("q0", ("y", "x"))]),
                (lossy, ("q1", ()), [("q2", ("x", "x")), ("q1", ("y",))])]

    def test_saturated_basis_is_a_point_order_antichain(self):
        for system, init, targets in self.cases():
            basis = backward_coverability(system, init, targets).basis
            space = system.state_space()
            points = [system.state_to_point(b) for b in basis]
            assert len(points) > 1
            for p, q in itertools.permutations(points, 2):
                assert not point_leq(space, p, q), (p, q)
            sorted_open = UpClosure(tuple(sorted(points, key=canonical_key)))
            assert up_closure(space, points) == sorted_open
            assert _basis_open(system, dict.fromkeys(basis)) == sorted_open


class TestCertificateCost:
    """A count guard against a quadratic certificate: the goodness pass
    typechecks each distinct point of the log once as it enters, and the
    evidence call at the hit each point of its two sides once."""

    def test_typechecks_linear_in_inserted_states(self, monkeypatch):
        # A 5-place token ring with a producer at place 0, asked to cover
        # 4 tokens at place 4: 24 rounds.
        def unit(i, v=1):
            return tuple(v if j == i else 0 for j in range(5))
        rules = [VASRule(unit(i), tuple(a + b for a, b in
                                        zip(unit(i, -1), unit((i + 1) % 5))))
                 for i in range(5)] + [VASRule(unit(0), unit(0))]
        calls, depth, certifying = 0, 0, False
        typecheck = space_mod.typecheck
        find_good_index = wsts_mod.find_good_index

        def counting_typecheck(*args):
            nonlocal calls, depth
            calls += certifying and depth == 0
            depth += 1
            try:
                return typecheck(*args)
            finally:
                depth -= 1

        def certify(*args):
            nonlocal certifying
            certifying = True
            try:
                return find_good_index(*args)
            finally:
                certifying = False

        # Every typecheck goes through space.typecheck.
        monkeypatch.setattr(space_mod, "typecheck", counting_typecheck)
        monkeypatch.setattr(wsts_mod, "find_good_index", certify)
        result = backward_coverability(VAS(5, rules), unit(0), [unit(4, 4)])
        assert result.rounds >= 20
        assert 0 < calls <= 2 * result.inserted + len(result.basis)


LOCATIONS = ("q0", "q1", "q2")


@st.composite
def vas_cases(draw):
    places = draw(st.integers(1, 4))
    vectors = lambda low, high: st.tuples(*[st.integers(low, high)] * places)
    rules = draw(st.lists(st.builds(VASRule, vectors(0, 1), vectors(-2, 2)),
                          min_size=2, max_size=5))
    return (VAS(places, rules), draw(vectors(0, 1)),
            draw(st.lists(vectors(0, 4), min_size=1, max_size=2)))


@st.composite
def lossy_cases(draw):
    location = st.sampled_from(LOCATIONS)
    rule = st.one_of(
        st.builds(ChannelRule, location, st.just("nop"), st.none(), location),
        st.builds(ChannelRule, location, st.sampled_from(["send", "recv"]),
                  st.sampled_from("xy"), location))
    system = LossyChannelSystem(LOCATIONS, ("x", "y"),
                                draw(st.lists(rule, min_size=3, max_size=8)))
    target = st.tuples(location, st.lists(st.sampled_from("xy"), min_size=1,
                                          max_size=3).map(tuple))
    return (system, (draw(location), ()),
            draw(st.lists(target, min_size=1, max_size=2)))


class TestFrontierSaturation:
    """Expanding only the previous round's additions gives what re-expanding
    the whole basis every round gives, down to the order of the basis, the
    counters, the certificate and the partial basis on running out of fuel."""

    # Random systems seldom reach the cases where the order of the frontier
    # and the dropping of dominated additions change the counters; these
    # two do.
    @example((VAS(3, [VASRule((1, 0, 1), (2, 2, -1)),
                      VASRule((0, 1, 0), (1, 1, 2))]),
              (1, 1, 1), [(0, 3, 1)]), 10 ** 6)
    @example((LossyChannelSystem(LOCATIONS, ("x", "y"), [
        ChannelRule("q1", "recv", "x", "q0"),
        ChannelRule("q0", "send", "y", "q1"),
        ChannelRule("q1", "nop", None, "q0")]),
        ("q2", ()), [("q0", ("x", "y"))]), 10 ** 6)
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(vas_cases(), lossy_cases()),
           st.sampled_from([3, 8, 30, 10 ** 6, 10 ** 6]))
    def test_matches_reference_saturation(self, case, fuel):
        system, init, targets = case

        def outcome(saturate):
            try:
                result = saturate(system, init, targets, fuel=fuel)
            except FuelExhausted as exc:
                return exc.partial_basis
            return result_to_json(result, fuel)

        assert outcome(backward_coverability) == outcome(saturate_brute)
