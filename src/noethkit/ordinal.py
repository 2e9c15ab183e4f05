"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^en*cn  with ordinal exponents
e1 > e2 > ... > en and positive integer coefficients.  The empty sum is 0.
Normal forms are unique, so structural equality is ordinal equality.

Besides the usual operations (comparison, sum, natural sum) this module
provides the cut/remainder combinatorics used by ordinal-length words:
given a run of length b, the distinct lengths that can remain after
removing a prefix form a small finite set, computable from the CNF of b.
`run_cuts(b)` lists them once, each with its least left part; every rule
that cuts a run reads it: `OrdWords.splits`, `OrdWords.substructures` and
`ow_suffixes_strictly_after` (the tails of suffix triangles) in `space`,
and the takes of ordinal products (`_match_product`) in `sets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class OrdinalError(ValueError):
    pass


@dataclass(frozen=True)
class Ordinal:
    """Ordinal below epsilon_0, as a tuple of (exponent, coefficient) terms."""

    terms: Tuple[Tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev: Optional[Ordinal] = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalError("exponent must be an Ordinal: %r" % (exp,))
            if not isinstance(coeff, int) or coeff < 1:
                raise OrdinalError("coefficient must be a positive int: %r" % (coeff,))
            if prev is not None and cmp(exp, prev) >= 0:
                raise OrdinalError("exponents must be strictly decreasing")
            prev = exp

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @staticmethod
    def omega_power(exp: "Ordinal", coeff: int = 1) -> "Ordinal":
        return Ordinal(((exp, coeff),))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise OrdinalError("%s is not finite" % self)
        return self.terms[0][1]

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def predecessor(self) -> "Ordinal":
        """The b with self = b + 1; defined only for successors."""
        if not self.is_successor():
            raise OrdinalError("%s is not a successor" % self)
        exp, coeff = self.terms[-1]
        if coeff > 1:
            return Ordinal(self.terms[:-1] + ((exp, coeff - 1),))
        return Ordinal(self.terms[:-1])

    # -- total order ---------------------------------------------------------
    # a > b and a >= b are answered by the reflected b < a and b <= a.

    def __lt__(self, other: "Ordinal") -> bool:
        return cmp(self, other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return cmp(self, other) <= 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return "Ordinal(%s)" % format_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega_power(ONE)


def cmp(a: Ordinal, b: Ordinal) -> int:
    """Total order on ordinals: -1, 0 or 1, lexicographic on CNF terms."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (non-commutative; low terms of a are absorbed)."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb = b.terms[0][0]
    kept = [t for t in a.terms if cmp(t[0], eb) > 0]
    merged = list(b.terms)
    for exp, coeff in a.terms:
        if cmp(exp, eb) == 0:
            merged[0] = (eb, coeff + b.terms[0][1])
            break
    return Ordinal(tuple(kept) + tuple(merged))


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg sum: merge the CNF term lists (commutative, associative)."""
    coeffs: dict[Ordinal, int] = {}
    order: list[Ordinal] = []
    for exp, coeff in a.terms + b.terms:
        if exp not in coeffs:
            coeffs[exp] = 0
            order.append(exp)
        coeffs[exp] += coeff
    order.sort(key=_sort_key, reverse=True)
    return Ordinal(tuple((e, coeffs[e]) for e in order))


def _sort_key(a: Ordinal):
    # Lexicographic tuple mirroring cmp, usable as a Python sort key.
    return tuple((_sort_key(e), c) for e, c in a.terms)


def classify(a: Ordinal) -> Tuple[str, Optional[Ordinal]]:
    """("zero"|"successor"|"limit", predecessor-if-successor)."""
    if a.is_zero():
        return ("zero", None)
    if a.is_successor():
        return ("successor", a.predecessor())
    return ("limit", None)


def is_indecomposable(a: Ordinal) -> bool:
    """Whether a = w^g for some g, i.e. a single CNF term with coefficient 1."""
    if a.is_zero():
        raise OrdinalError("0 has no indecomposability status here")
    return len(a.terms) == 1 and a.terms[0][1] == 1


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique v with a + v = b; requires a <= b."""
    if cmp(a, b) > 0:
        raise OrdinalError("left_subtract needs %s <= %s" % (a, b))
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    ea, ca = a.terms[i]
    eb, cb = b.terms[i]
    c = cmp(ea, eb)
    if c < 0:
        # b's term dominates everything left in a.
        return Ordinal(b.terms[i:])
    if c == 0 and cb > ca:
        return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
    raise OrdinalError("left_subtract needs %s <= %s" % (a, b))


def limit_finite_split(a: Ordinal) -> Tuple[Ordinal, int]:
    """Write a = L + k with L limit-or-zero and k a natural number."""
    if a.terms and a.terms[-1][0].is_zero():
        return Ordinal(a.terms[:-1]), a.terms[-1][1]
    return a, 0


def run_cuts(b: Ordinal) -> Tuple[Tuple[Ordinal, Ordinal], ...]:
    """The cuts of a run of length b: one pair (c, r) with c + r = b per
    distinct remainder r, c the least such left part, in strictly
    decreasing order of r from (0, b) to (b, 0).  Cutting inside term i of
    b's normal form leaves k < coeff copies of that power and the later
    terms, so every pair is read off the terms."""
    cuts = [(ZERO, b)]
    for i, (exp, coeff) in enumerate(b.terms):
        head, tail = b.terms[:i], b.terms[i + 1:]
        cuts.extend((Ordinal(head + ((exp, coeff - k),)),
                     Ordinal(((exp, k),) + tail))
                    for k in range(coeff - 1, 0, -1))
        cuts.append((Ordinal(head + ((exp, coeff),)), Ordinal(tail)))
    return tuple(cuts)


# -- textual syntax ----------------------------------------------------------
#
#   ordinal := '0' | term ('+' term)*
#   term    := INT | 'w' ['^' exp] ['*' INT]
#   exp     := INT | 'w' | '(' ordinal ')'
#
# Canonical printing omits '*1' and '^1'; whitespace around '+' is accepted.


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp == ONE:
            s = "w"
        elif exp.is_finite():
            s = "w^%d" % exp.to_int()
        else:
            s = "w^(%s)" % format_ordinal(exp)
        if coeff != 1:
            s += "*%d" % coeff
        parts.append(s)
    return " + ".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> OrdinalError:
        return OrdinalError("ordinal syntax error at %d in %r: %s"
                            % (self.pos, self.text, msg))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's digit limit for int()
            raise self.error("integer of %d digits is too long"
                             % (self.pos - start)) from None

    def parse_ordinal(self) -> Ordinal:
        self.skip_ws()
        terms = list(self.parse_term().terms)
        while True:
            self.skip_ws()
            if self.peek() != "+":
                break
            self.pos += 1
            self.skip_ws()
            for exp, coeff in self.parse_term().terms:
                if terms and cmp(exp, terms[-1][0]) >= 0:
                    raise self.error("terms must appear with strictly "
                                     "decreasing exponents")
                terms.append((exp, coeff))
        return Ordinal(tuple(terms))

    def parse_term(self) -> Ordinal:
        ch = self.peek()
        if ch.isdecimal():
            return Ordinal.from_int(self.take_int())
        if ch != "w":
            raise self.error("expected 'w' or an integer")
        self.pos += 1
        exp = ONE
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "(":
                self.pos += 1
                exp = self.parse_ordinal()
                self.skip_ws()
                if self.peek() != ")":
                    raise self.error("expected ')'")
                self.pos += 1
            elif self.peek() == "w":
                self.pos += 1
                exp = OMEGA
            else:
                exp = Ordinal.from_int(self.take_int())
        coeff = 1
        if self.peek() == "*":
            self.pos += 1
            coeff = self.take_int()
        if exp.is_zero():
            return Ordinal.from_int(coeff)
        return Ordinal.omega_power(exp, coeff)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual grammar; exponents must be strictly decreasing."""
    p = _Parser(text)
    result = p.parse_ordinal()
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.error("trailing input")
    return result


def to_json(a: Ordinal):
    """Nested term arrays: 0 is [], w^e*c is [[e_json, c], ...]."""
    return [[to_json(exp), coeff] for exp, coeff in a.terms]


def from_json(data) -> Ordinal:
    return Ordinal(tuple((from_json(exp), int(coeff)) for exp, coeff in data))
