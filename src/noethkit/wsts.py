"""Monotone transition systems: forward runs as bad sequences, and backward
coverability over upward-closed target sets.

Two exact system families are built in: vector addition systems with
guards (Petri-net style rules over natural vectors) and single-channel
lossy channel systems.  Both expose a minimal predecessor basis, so the
backward saturation is exact; its termination certificate is the goodness
oracle applied to the growing sequence of basis opens.

The three-counter loop from the introduction of well-quasi-order-based
termination proofs is provided as a runnable machine whose every trace is
checked to be a bad sequence in (N^3, <=)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import eq
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .sets import UpClosure, find_good_index
from .space import (
    Atom,
    NatVal,
    Nat,
    Pair,
    PointTerm,
    Product,
    SpaceExpr,
    Word,
    Words,
    canonical_key,
    discrete,
    higman_leq,
    minimize_basis,
    point_leq,
)


class WstsError(ValueError):
    pass


class FuelExhausted(WstsError):
    def __init__(self, msg: str, partial_basis):
        super().__init__(msg)
        self.partial_basis = partial_basis


# -- the three-counter loop -----------------------------------------------------


@dataclass(frozen=True)
class CounterTrace:
    states: Tuple[Tuple[int, int, int], ...]
    stopping_rule: str


COUNTER_RULES: Dict[str, Callable[[Tuple[int, int, int]], Tuple[int, int, int]]] = {
    "l": lambda s: (s[0] - 1, s[1], 2 * s[2]),
    "r": lambda s: (2 * s[2], s[1] - 1, 1),
}


def make_schedule(text: str) -> Callable[[int], str]:
    """A rule schedule: a nonempty string over {l, r} cycled forever, or
    "random:SEED" for a seeded coin."""
    if text.startswith("random:"):
        rng = random.Random(int(text.split(":", 1)[1]))
        return lambda i: rng.choice("lr")
    if not text or set(text) - {"l", "r"}:
        raise WstsError("schedule must be over {l, r} or random:SEED")
    return lambda i: text[i % len(text)]


def run_counter_machine(start: Tuple[int, int, int], schedule: str = "lr",
                        fuel: int = 10 ** 6) -> CounterTrace:
    """Run the loop  l: (a,b,c) <- (a-1, b, 2c);  r: (a,b,c) <- (2c, b-1, 1)
    until a component would go negative.  The trace of visited states is
    verified to be a bad sequence in (N^3, <=); exceeding the fuel without
    a goodness violation is treated as an engine bug."""
    if min(start) < 0:
        raise WstsError("start state must be non-negative")
    pick = make_schedule(schedule)
    states = [start]
    state = start
    stopping = ""
    for i in range(fuel):
        rule = pick(i)
        nxt = COUNTER_RULES[rule](state)
        if min(nxt) < 0:
            stopping = rule
            break
        state = nxt
        states.append(state)
    else:
        raise FuelExhausted("counter machine exceeded its fuel", tuple(states))
    trace = tuple(states)
    bad_violation = _first_good_pair(trace)
    if bad_violation is not None:
        raise WstsError("trace is not a bad sequence at %r" % (bad_violation,))
    return CounterTrace(trace, stopping)


def _first_good_pair(states) -> Optional[Tuple[int, int]]:
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if all(x <= y for x, y in zip(states[i], states[j])):
                return (i, j)
    return None


# -- vector addition systems -------------------------------------------------------


@dataclass(frozen=True)
class VASRule:
    guard: Tuple[int, ...]
    delta: Tuple[int, ...]

    def normalized(self) -> "VASRule":
        guard = tuple(max(g, -d, 0) for g, d in zip(self.guard, self.delta))
        return VASRule(guard, self.delta)


class VAS:
    """Vector addition system with guards over natural-number vectors."""

    def __init__(self, places: int, rules: Sequence[VASRule]):
        if places < 1:
            raise WstsError("need at least one place")
        for rule in rules:
            if len(rule.guard) != places or len(rule.delta) != places:
                raise WstsError("rule arity mismatch")
        self.places = places
        self.rules = tuple(r.normalized() for r in rules)

    def state_space(self) -> SpaceExpr:
        space: SpaceExpr = Nat()
        for _ in range(self.places - 1):
            space = Product(Nat(), space)
        return space

    def state_to_point(self, state: Tuple[int, ...]) -> PointTerm:
        point: PointTerm = NatVal(state[-1])
        for x in reversed(state[:-1]):
            point = Pair(NatVal(x), point)
        return point

    def leq(self, s, t) -> bool:
        return all(x <= y for x, y in zip(s, t))

    def successors(self, state) -> Iterable[Tuple[int, ...]]:
        for rule in self.rules:
            if all(x >= g for x, g in zip(state, rule.guard)):
                yield tuple(x + d for x, d in zip(state, rule.delta))

    def pred_basis(self, target) -> Iterable[Tuple[int, ...]]:
        """Minimal one-step predecessors of the up-set of `target`: for each
        rule, the componentwise max of the guard and target - delta."""
        for rule in self.rules:
            yield tuple(max(g, t - d)
                        for g, t, d in zip(rule.guard, target, rule.delta))


# -- lossy channel systems ----------------------------------------------------------


@dataclass(frozen=True)
class ChannelRule:
    src: str
    op: str  # "send" | "recv" | "nop"
    letter: Optional[str]
    dst: str


class LossyChannelSystem:
    """Control locations with one lossy FIFO channel: sends append, receives
    consume the head, and the channel may silently drop letters."""

    def __init__(self, locations: Sequence[str], alphabet: Sequence[str],
                 rules: Sequence[ChannelRule]):
        self.locations = tuple(locations)
        self.alphabet = tuple(alphabet)
        self.letters = frozenset(self.alphabet)
        for rule in rules:
            if rule.src not in self.locations or rule.dst not in self.locations:
                raise WstsError("rule mentions unknown location")
            if rule.op not in ("send", "recv", "nop"):
                raise WstsError("unknown channel operation %r" % rule.op)
            if (rule.letter is None) != (rule.op == "nop"):
                raise WstsError("letter required exactly for send/recv")
            if rule.letter is not None and rule.letter not in self.alphabet:
                raise WstsError("rule mentions unknown letter")
        self.rules = tuple(rules)

    def state_space(self) -> SpaceExpr:
        return Product(discrete(*self.locations),
                       Words(discrete(*self.alphabet)))

    def state_to_point(self, state) -> PointTerm:
        loc, word = state
        return Pair(Atom(loc), Word(tuple(Atom(c) for c in word)))

    def leq(self, s, t) -> bool:
        # The order of state_to_point, Higman's over a discrete alphabet; a
        # letter outside the alphabet is left to point_leq's domain error.
        if s[0] != t[0]:
            return False
        if self.letters.issuperset(s[1]) and self.letters.issuperset(t[1]):
            return higman_leq(s[1], t[1], eq)
        return point_leq(self.state_space().right,
                         *(Word(tuple(map(Atom, c))) for c in (s[1], t[1])))

    def successors(self, state) -> Iterable:
        """One step, with sends blocked once the channel holds six letters."""
        loc, word = state
        # Lossiness: drop any single letter.
        for i in range(len(word)):
            yield (loc, word[:i] + word[i + 1:])
        for rule in self.rules:
            if rule.src != loc:
                continue
            if rule.op == "nop":
                yield (rule.dst, word)
            elif rule.op == "send":
                if len(word) < 6:
                    yield (rule.dst, word + (rule.letter,))
            elif rule.op == "recv":
                if word and word[0] == rule.letter:
                    yield (rule.dst, word[1:])

    def pred_basis(self, target) -> Iterable:
        loc, word = target
        for rule in self.rules:
            if rule.dst != loc:
                continue
            if rule.op == "nop":
                yield (rule.src, word)
            elif rule.op == "recv":
                yield (rule.src, (rule.letter,) + word)
            elif rule.op == "send":
                if word and word[-1] == rule.letter:
                    yield (rule.src, word[:-1])
                yield (rule.src, word)


# -- backward coverability ------------------------------------------------------------


@dataclass
class CoverabilityResult:
    verdict: str  # "coverable" | "uncoverable"
    witness_length: Optional[int]
    # On an uncoverable verdict the complement of the basis's up-closure is
    # an inductive invariant containing `init`.
    basis: Tuple
    rounds: int
    inserted: int
    goodness_index: Optional[int]
    goodness_via: Optional[str]


def backward_coverability(system, init, targets,
                          fuel: int = 10 ** 6) -> CoverabilityResult:
    """Saturate predecessor bases of the upward-closed target set, then
    decide by membership of the initial state.

    Each round expands, in sorted order, only the states the previous round
    added: the basis's up-closure only grows, so older states' predecessors
    stay covered.  A predecessor above no basis state is inserted, and the
    states above it drop out.  The saturation is certified by the goodness
    oracle: the cumulative basis opens grow strictly until the final round,
    whose open must be the first one covered by the union of its
    predecessors."""
    leq = system.leq
    # Basis state -> the round that inserted it, which is its distance to
    # the targets.
    basis = dict.fromkeys(minimize_basis(targets, leq), 0)
    if not basis:
        raise WstsError("empty target basis")
    opens_log = [_basis_open(system, basis)]
    frontier = tuple(basis)
    inserted = len(basis)
    rounds = 0
    while True:
        rounds += 1
        added = []
        for b in frontier:
            for p in system.pred_basis(b):
                if any(leq(k, p) for k in basis):
                    continue
                for k in [k for k in basis if leq(p, k)]:
                    del basis[k]
                basis[p] = rounds
                added.append(p)
        if not added:
            break
        inserted += len(added)
        if inserted > fuel:
            raise FuelExhausted("coverability basis exceeded its fuel",
                                tuple(sorted(basis)))
        frontier = tuple(sorted(p for p in added if p in basis))
        opens_log.append(_basis_open(system, basis))

    # One more copy of the saturated open: the first good index must be
    # exactly there, witnessing both strict growth and saturation.
    seq = opens_log + [opens_log[-1]]
    hit = find_good_index(system.state_space(), seq)
    if hit is None or hit[0] != len(opens_log):
        raise WstsError("saturation certificate failed: %r" % (hit,))

    covered = [dist for b, dist in basis.items() if leq(b, init)]
    verdict = "coverable" if covered else "uncoverable"
    return CoverabilityResult(verdict, min(covered, default=None),
                              tuple(sorted(basis)), rounds, inserted,
                              hit[0], hit[1].via)


def _basis_open(system, basis) -> UpClosure:
    # The basis is already a system.leq antichain, and for the built-in
    # families system.leq is the point order on state_to_point, so the sorted
    # points are the minimized basis of the open.
    return UpClosure(tuple(sorted((system.state_to_point(b) for b in basis),
                                  key=canonical_key)))


def validate_monotonicity(system, samples: Sequence, bumps: Sequence) -> None:
    """Sampled compatibility check for user-supplied systems: whenever
    x <= y and x steps to x', some step of y dominates x'.  Raises on the
    first violation.  (Exact for the built-in families by construction;
    this is the gate for plugged-in predecessor callbacks.)"""
    leq = system.leq
    for x, y in zip(samples, bumps):
        if not leq(x, y):
            continue
        for nx in system.successors(x):
            if not any(leq(nx, ny) for ny in system.successors(y)):
                raise WstsError("monotonicity violated at %r <= %r" % (x, y))


def forward_coverable(system, init, targets, state_cap) -> bool:
    """Bounded explicit-state forward search: the test oracle for the
    backward engine.  Exact when the reachable space fits under the state
    cap; more than 10^5 expanded states is an error."""
    leq = system.leq
    seen = {init}
    frontier = [init]
    steps = 0
    while frontier:
        state = frontier.pop()
        if any(leq(t, state) for t in targets):
            return True
        steps += 1
        if steps > 10 ** 5:
            raise WstsError("forward search exceeded its step cap")
        for nxt in system.successors(state):
            if nxt in seen or not _within(nxt, state_cap):
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return False


def _within(state, cap) -> bool:
    if isinstance(cap, int):
        if isinstance(state, tuple) and state and isinstance(state[0], int):
            return all(x <= cap for x in state)
        loc, word = state
        return len(word) <= cap
    return all(x <= c for x, c in zip(state, cap))


# -- JSON system descriptions ----------------------------------------------------------


def system_from_json(doc: dict):
    """Build a system plus (init, targets) from its JSON description;
    malformed descriptions raise WstsError."""
    family = _field(doc, "family", str)
    if family == "vas":
        rules = [VASRule(_items(_field(r, "guard"), int),
                         _items(_field(r, "delta"), int))
                 for r in _field(doc, "rules")]
        system = VAS(_field(doc, "places", int), rules)
        states = [_items(s, int, 0)
                  for s in [_field(doc, "init")] + _field(doc, "target")]
        if any(len(s) != system.places for s in states):
            raise WstsError("init and target need %d places" % system.places)
        return system, states[0], states[1:]
    if family == "lossy":
        rules = [ChannelRule(_field(r, "from", str), _field(r, "op", str),
                             r.get("letter"), _field(r, "to", str))
                 for r in _field(doc, "rules")]
        system = LossyChannelSystem(_items(_field(doc, "locations"), str),
                                    _items(_field(doc, "alphabet"), str),
                                    rules)
        states = [(_field(s, "location", str),
                   _items(s.get("channel", []), str))
                  for s in [_field(doc, "init", dict)] + _field(doc, "target")]
        for location, _ in states:
            if location not in system.locations:
                raise WstsError("state mentions unknown location %r"
                                % location)
        return system, states[0], states[1:]
    raise WstsError("unknown system family %r" % (family,))


def _field(obj, key: str, kind: type = list):
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise WstsError("expected a JSON %s in the field %r"
                        % (kind.__name__, key))
    return value


def _items(values, kind: type, low: Optional[int] = None) -> Tuple:
    if not isinstance(values, list) or not all(
            type(x) is kind and (low is None or x >= low) for x in values):
        raise WstsError("expected a list of %s%s, got %r" % (
            kind.__name__, "" if low is None else " >= %d" % low, values))
    return tuple(values)


def result_to_json(result: CoverabilityResult, fuel: int) -> dict:
    doc = {
        "verdict": result.verdict,
        "basis": [list(b) if isinstance(b, tuple) and b
                  and isinstance(b[0], int)
                  else {"location": b[0], "channel": list(b[1])}
                  for b in result.basis],
        "rounds": result.rounds,
        "inserted": result.inserted,
        "fuel": fuel,
        "certificate": {
            "goodness_index": result.goodness_index,
            "via": result.goodness_via,
        },
    }
    if result.verdict == "coverable":
        doc["witness_length"] = result.witness_length
    return doc
