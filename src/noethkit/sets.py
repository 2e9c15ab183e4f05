"""Symbolic open and closed subsets over the space algebra.

Open expressions cover upward closures, letter-pattern word opens
<U1,...,Un>, up-closed concatenations, subtree opens, suffix triangles
b |> U over ordinal words, the F |x U prefix-guard sets, and raw one-letter
prefix cylinders (the non-up-closed opens of the prefix topology).  Closed
expressions cover downward closures, complements, and ordinal products of
F^{<b} / F^{<=1} atoms.

Each constructor is a class holding its meaning: `check(space)`, whether
the term fits the space, with the space guard of the constructor and the
space each field is read in; `member(space, p)`, its membership; for an
open, `normal()`, its own rewrites once its open fields are normal
(`normalize_open` is the fold, `normalize_opens` the fold of a family that
folds each shared subterm object once); and, where it has one, `mask`, its
extent rule from its parts' masks or the oracle's tables.  The closed twins
of Empty, Whole, Union and Intersect take their check, membership and mask
rules, so open and closed membership are one recursion and open and closed
extents one algorithm; ComplementOf and CarrierOpen read their part's
mask.  Only the leaf constructors, with no rule over their parts' masks,
take the default mask, a filter of the universe by membership.
Adding a constructor takes its class with these rules, its place in
`OpenExpr` or `ClosedExpr`, and one `sexpr` grammar row.  Word and tree
points are read only through the rules of their space (see `space`), never
by their point class.

A term is checked once where it enters the library (`member_open`,
`includes`, `spec_leq`, `base_complement`, and `ExtentOracle.mask` on a
memo miss), parts that no rule reads included, so a term that does not fit
is a domain error even over an empty universe.  The `member` and `mask`
rules trust the check: they test no space.

Membership is structural recursion, exact except for two ConcatUp gaps:
it samples the prefixes that `OrdWords.splits` pairs with the exact
remainders of an infinite run, and it takes only exact splits, while the
extent is the upward closure of the concatenation (at bound 3 the extent
of `(concatup (prefix (base a) (whole)) (wordopen (base b)))` over words
holds `(word b a b)`, not a member).  The universal fallback oracle is
`extent`: an enumerated finite universe held as an int bitmask, where
up-closures are read from the up table of the point order, the word
rules (concatenation, suffix triangle, prefix cylinder, and the letter
pattern as the suffix closure of a prefix cylinder) and the substructure
rules (tree opens, substructure closures) from one table of mask rows
keyed by relation (see `ExtentOracle`), the Boolean combinations from
their parts' masks, and the leaf constructors by membership, with
lattice questions decided by `meet_table`.  The oracle memoizes masks per
term.  Each set term keeps its hash once computed (`_kept_hash`), so a
memo probe does not walk the term again; points and spaces are hashed
afresh.
`includes` is three-valued, with two exact fragments (unions of upward
closures, and the letter-pattern inclusion rule) and an extent fallback
that records its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from operator import and_, or_
from typing import (Dict, Iterable, List, Optional, Tuple, Union as TUnion,
                    get_args)

from .ordinal import (ONE, ZERO, Ordinal, add, classify, cmp,
                      limit_finite_split, run_cuts)
from .space import (
    Atom,
    FiniteQO,
    InL,
    OrdTrees,
    OrdWord,
    OrdWords,
    PointTerm,
    Product,
    SpaceError,
    SpaceExpr,
    Sum,
    Trees,
    Word,
    Words,
    _leq,
    _require_points,
    canonical_key,
    enumerate_points,
    higman_leq,
    key_rows,
    minimize_basis,
    ord_to_word,
    ow_suffix_from,
    ow_suffixes_strictly_after,
    point_leq,
)


class SetError(ValueError):
    pass


class RewriteShapeError(SetError):
    """Raised when a rewrite identity does not apply to the given shape."""


# The extent bound of every query not given one.
DEFAULT_BOUND = 4


class _Set:
    """Defaults of the constructors: a check that fails (the product atoms
    are no sets), and a mask that filters the universe by membership, the
    extent of the leaf constructors, which have no rule over their parts'
    masks.  Each `member` and `mask` rule trusts the term to fit the space
    and p to typecheck in it (`check` and the entry points check both)."""

    strict = True  # an open with an empty open field is empty
    _hash = None  # the term's hash, kept on first use (see `_kept_hash`)

    def check(self, space) -> None:
        raise SetError("not an open expression: %r" % (self,))

    def mask(self, oracle: ExtentOracle) -> int:
        return oracle._filter(lambda p: self.member(oracle.space, p))


class _ClosedSet(_Set):
    """A closed constructor: the oracle keeps its masks apart."""


def _no_rewrite(u):
    """The normal-form rule of an open with no rewrite of its own."""
    return u


# -- open expressions ---------------------------------------------------------


@dataclass(frozen=True)
class Empty(_Set):
    normal = _no_rewrite

    def check(self, space) -> None:
        """A constant fits every space."""

    def member(self, space, p) -> bool:
        return False

    def mask(self, oracle) -> int:
        return 0


@dataclass(frozen=True)
class Whole(_Set):
    normal, check = _no_rewrite, Empty.check

    def member(self, space, p) -> bool:
        return True

    def mask(self, oracle) -> int:
        return oracle.full


@dataclass(frozen=True)
class Union(_Set):
    parts: Tuple[OpenExpr, ...]
    strict = False
    unit, absorbing = Empty, Whole  # the part that drops out, and that wins

    def check(self, space) -> None:
        for part in self.parts:
            part.check(space)

    def member(self, space, p) -> bool:
        return any(part.member(space, p) for part in self.parts)

    def mask(self, oracle) -> int:
        return reduce(or_, map(oracle._mask, self.parts), 0)

    def normal(self):
        parts = []
        for part in self.parts:
            if isinstance(part, self.absorbing):
                return part
            if isinstance(part, type(self)):
                parts.extend(part.parts)
            elif not isinstance(part, self.unit):
                parts.append(part)
        unique = {open_key(p): p for p in reversed(parts)}  # the first of each
        parts = [unique[k] for k in sorted(unique)]
        if len(parts) == 1:
            return parts[0]
        return type(self)(tuple(parts)) if parts else self.unit()


@dataclass(frozen=True)
class Intersect(_Set):
    parts: Tuple[OpenExpr, ...]
    unit, absorbing = Whole, Empty
    check = Union.check

    def member(self, space, p) -> bool:
        return all(part.member(space, p) for part in self.parts)

    def mask(self, oracle) -> int:
        return reduce(and_, map(oracle._mask, self.parts), oracle.full)

    normal = Union.normal


@dataclass(frozen=True)
class UpClosure(_Set):
    """Upward closure of finitely many points in the point embedding order."""

    points: Tuple[PointTerm, ...]

    def check(self, space) -> None:
        _require_fit(space, dict.fromkeys(self.points))

    def member(self, space, p) -> bool:
        return any(_leq(space, e, p) for e in self.points)

    def mask(self, oracle) -> int:
        # The universe is downward closed (see space.enumerate_points), so a
        # point outside it has nothing above it there: only the rows of the
        # points inside count.
        return oracle._up_of(oracle.mask_of(self.points))

    def normal(self):
        if not self.points:
            return Empty()
        if Word(()) in self.points or OrdWord(()) in self.points:
            return Whole()
        return self


@dataclass(frozen=True)
class BaseOpen(_Set):
    """A subset of a finite base, by element names, which must be upward
    closed in the base quasi-order to be one of its opens."""

    names: frozenset
    normal = _no_rewrite

    def __post_init__(self):
        object.__setattr__(self, "names", frozenset(self.names))

    def __repr__(self):
        # The names in sorted order, so that an error message naming the
        # set reads the same under every hash seed.
        names = ", ".join(map(repr, sorted(self.names)))
        return "BaseOpen(names=frozenset(%s))" % ("{%s}" % names if names else "")

    def check(self, space) -> None:
        # Every subset of a discrete base is upward closed, so only other
        # bases pay the pass over the order.
        names = self.names
        if not (isinstance(space, FiniteQO) and names <= space.element_set):
            raise SetError("%s needs a finite base holding its names, got %r"
                           % (self._shown(), space))
        if not space.is_discrete and any(y not in names for x, y in space.leq
                                         if x in names):
            raise SetError("%s is not upward closed in %r"
                           % (self._shown(), space))

    def member(self, space, p) -> bool:
        return p.name in self.names

    def _shown(self) -> str:
        return "(base%s)" % "".join(" " + n for n in sorted(self.names))


@dataclass(frozen=True)
class Rect(_Set):
    left: OpenExpr
    right: OpenExpr
    normal = _no_rewrite

    def check(self, space) -> None:
        if not isinstance(space, Product):
            raise SetError("Rect needs a product space")
        self.left.check(space.left)
        self.right.check(space.right)

    def member(self, space, p) -> bool:
        return (self.left.member(space.left, p.left)
                and self.right.member(space.right, p.right))


@dataclass(frozen=True)
class SumOpen(_Set):
    left: OpenExpr
    right: OpenExpr
    normal = _no_rewrite
    strict = False

    def check(self, space) -> None:
        if not isinstance(space, Sum):
            raise SetError("SumOpen needs a sum space")
        self.left.check(space.left)
        self.right.check(space.right)

    def member(self, space, p) -> bool:
        if isinstance(p, InL):
            return self.left.member(space.left, p.value)
        return self.right.member(space.right, p.value)


@dataclass(frozen=True)
class WordOpen(_Set):
    """<U1,...,Un>: words with letters in U1..Un in order, anything between.
    Parts are opens of the base space.  A word is in it iff the pattern
    embeds into it Higman-wise, where a letter fits a part it is a member
    of; on an ordinal word each part is a run of one."""

    parts: Tuple[OpenExpr, ...]

    def check(self, space) -> None:
        Union.check(self, _word_space_base(space))

    def member(self, space, p) -> bool:
        fits = lambda part, letter: part.member(space.base, letter)
        return space.pattern_leq(self.parts, p, fits)

    # <U1,...,Un> = upsub(U1.<U2,...,Un>) for every part, by the definition
    # of the match: some suffix starts with a letter of U1 and goes on into
    # the tail.  The tails are memoized as they recur.
    def mask(self, oracle) -> int:
        if not self.parts:
            return oracle.full
        return oracle._mask(UpSubstructure(
            PrefixConcat(self.parts[0], WordOpen(self.parts[1:]))))

    def normal(self):
        return self if self.parts else Whole()


@dataclass(frozen=True)
class ConcatUp(_Set):
    """Upward closure of the concatenation UV of two word-space opens."""

    left: OpenExpr
    right: OpenExpr

    def check(self, space) -> None:
        _word_space_base(space)
        self.left.check(space)
        self.right.check(space)

    def member(self, space, p) -> bool:
        return any(self.left.member(space, prefix)
                   and self.right.member(space, suffix)
                   for prefix, suffix in space.splits(p))

    def mask(self, oracle) -> int:
        # up(LR) restricted to the universe: glue the bounded extents and
        # close upward (anything above a too-long glue is too long too).
        # Concatenation is monotone, so gluing the minimal elements of each
        # side suffices.
        right = list(_bits(oracle._minimals(oracle._mask(self.right))))
        glued = 0
        for i in _bits(oracle._minimals(oracle._mask(self.left))):
            row = oracle._glue_rows(i)
            for j in right:
                glued |= row[j]
        return oracle._up_of(glued)

    def normal(self):
        if isinstance(self.left, Whole):
            return self.right
        if isinstance(self.right, Whole):
            return self.left
        if isinstance(self.left, WordOpen) and isinstance(self.right, WordOpen):
            return WordOpen(self.left.parts + self.right.parts)
        return self


@dataclass(frozen=True)
class TreeOpen(_Set):
    """Trees with a subtree whose root lies in root_open and whose children
    word lies in children_open (an open of words over the tree space)."""

    root_open: OpenExpr
    children_open: OpenExpr
    normal = _no_rewrite

    def check(self, space) -> None:
        if not isinstance(space, (Trees, OrdTrees)):
            raise SetError("TreeOpen needs a tree point")
        self.root_open.check(space.base)
        self.children_open.check(_forest_space(space))

    def member(self, space, p) -> bool:
        kids_space = _forest_space(space)
        return any(self.root_open.member(space.base, sub.label)
                   and self.children_open.member(kids_space, space.forest(sub))
                   for sub in space.substructures(p))

    # The trees matching at their own root, closed by the substructure rows:
    # one children test per tree, not one per (tree, subtree) pair.
    # Filtering this and UpSubstructure by membership instead took the
    # bench `restrict` wall_s up 1.35-fold.
    def mask(self, oracle) -> int:
        space = oracle.space
        kids_space = _forest_space(space)
        base = oracle_for(space.base, oracle.bound)
        roots = base._mask(self.root_open)
        return oracle._with_substructure_in(_mask_where([
            roots >> base.index[t.label] & 1
            and self.children_open.member(kids_space, space.forest(t))
            for t in oracle.universe]))


@dataclass(frozen=True)
class Triangle(_Set):
    """b |> U: ordinal words whose suffixes past every position < b lie in U
    (upward closed whenever U is)."""

    beta: Ordinal
    inner: OpenExpr
    strict = False  # 0 |> U is the whole space, U empty or not

    def check(self, space) -> None:
        _word_space_base(space)
        self.inner.check(space)

    def member(self, space, p) -> bool:
        return all(self.inner.member(space, s)
                   for s in _suffixes_past(space, p, self.beta))

    # Suffix rows read against the inner mask: filtering by membership
    # instead took the bench `restrict` wall_s up 2- to 2.4-fold.
    def mask(self, oracle) -> int:
        space, beta = oracle.space, self.beta
        outside = ~oracle._mask(self.inner)
        rows = oracle._rows(("suffix", beta),
                            lambda p: _suffixes_past(space, p, beta))
        return _mask_where([not row & outside for row in rows])

    def normal(self):
        if self.beta.is_zero() or isinstance(self.inner, Whole):
            return Whole()
        return Empty() if isinstance(self.inner, Empty) else self


@dataclass(frozen=True)
class RTimes(_Set):
    """F |x U: upward closure of the words a.v with a outside the closed F
    and a.v in U."""

    closed: ClosedExpr
    inner: OpenExpr

    def check(self, space) -> None:
        self.closed.check(_word_space_base(space))
        self.inner.check(space)

    def member(self, space, p) -> bool:
        # Sound always; complete when the inner set is upward closed and the
        # guard is downward closed (true for every constructed instance):
        # the run-initial suffixes then dominate all in-run choices of the
        # position.
        base, word = space.base, space.runs(p)
        return any(
            not self.closed.member(base, letter)
            and self.inner.member(space, space.point(ow_suffix_from(word, i)))
            for i, (letter, _) in enumerate(word.segments))

    def normal(self):
        return Empty() if isinstance(self.closed, WholeC) else self


@dataclass(frozen=True)
class PrefixConcat(_Set):
    """Letters(W).V: words starting with a letter in the base open W whose
    tail lies in V.  Not upward closed; the prefix-topology generator."""

    letters: OpenExpr
    rest: OpenExpr
    normal = _no_rewrite

    def check(self, space) -> None:
        self.letters.check(_word_space_base(space))
        self.rest.check(space)

    def member(self, space, p) -> bool:
        step = space.uncons(p)
        return (step is not None and self.letters.member(space.base, step[0])
                and self.rest.member(space, step[1]))

    # The prepend rows read against the tail's mask.  Exact on the
    # finite-run universe, where uncons and cons undo each other.
    def mask(self, oracle) -> int:
        base = oracle_for(oracle.space.base, oracle.bound)
        rest = list(_bits(oracle._mask(self.rest)))
        out = 0
        for letter in base.points(base._mask(self.letters)):
            row = oracle._cons_rows(letter)
            for i in rest:
                out |= row[i]
        return out


@dataclass(frozen=True)
class UpSubstructure(_Set):
    """Points with a substructure (a suffix for words, a subtree for trees,
    the point itself included) in the inner set."""

    inner: OpenExpr

    def check(self, space) -> None:
        if not hasattr(space, "substructures"):
            raise SetError("no substructure order on %r" % (space,))
        self.inner.check(space)

    def member(self, space, p) -> bool:
        return any(self.inner.member(space, s) for s in space.substructures(p))

    def mask(self, oracle) -> int:
        return oracle._with_substructure_in(oracle._mask(self.inner))

    def normal(self):
        return Whole() if isinstance(self.inner, Whole) else self


@dataclass(frozen=True)
class CarrierOpen(_Set):
    """A closed carrier used as a relative open inside a restricted topology."""

    closed: ClosedExpr
    normal = _no_rewrite

    def check(self, space) -> None:
        self.closed.check(space)

    def member(self, space, p) -> bool:
        return self.closed.member(space, p)

    def mask(self, oracle) -> int:
        return oracle._mask(self.closed)


OpenExpr = TUnion[Empty, Whole, Union, Intersect, UpClosure, BaseOpen, Rect,
                  SumOpen, WordOpen, ConcatUp, TreeOpen, Triangle, RTimes,
                  PrefixConcat, UpSubstructure, CarrierOpen]


# -- closed expressions -------------------------------------------------------


@dataclass(frozen=True)
class EmptyC(_ClosedSet):
    check, member, mask = Empty.check, Empty.member, Empty.mask


@dataclass(frozen=True)
class WholeC(_ClosedSet):
    check, member, mask = Whole.check, Whole.member, Whole.mask


@dataclass(frozen=True)
class UnionC(_ClosedSet):
    parts: Tuple[ClosedExpr, ...]
    check, member, mask = Union.check, Union.member, Union.mask


@dataclass(frozen=True)
class IntersectC(_ClosedSet):
    parts: Tuple[ClosedExpr, ...]
    check, member, mask = Intersect.check, Intersect.member, Intersect.mask


@dataclass(frozen=True)
class DownClosure(_ClosedSet):
    points: Tuple[PointTerm, ...]
    check = UpClosure.check

    def member(self, space, p) -> bool:
        # UpClosure's rule with the comparison reversed.
        return any(_leq(space, p, e) for e in self.points)


@dataclass(frozen=True)
class ComplementOf(_ClosedSet):
    open: OpenExpr

    def check(self, space) -> None:
        self.open.check(space)

    def member(self, space, p) -> bool:
        return not self.open.member(space, p)

    def mask(self, oracle) -> int:
        return oracle.full & ~oracle._mask(self.open)


@dataclass(frozen=True)
class AtMostOne(_Set):
    """F^{<=1}: words of at most one letter, the letter drawn from F."""

    closed: ClosedExpr
    beta = Ordinal.from_int(2)  # the product match reads it as F^{<2}


@dataclass(frozen=True)
class Power(_Set):
    """F^{<b}: words of length < b with all letters in F."""

    closed: ClosedExpr
    beta: Ordinal

    def __post_init__(self):
        if self.beta.is_zero():
            raise SetError("Power needs a positive exponent")


ProductAtom = TUnion[AtMostOne, Power]


@dataclass(frozen=True)
class OrdProduct(_ClosedSet):
    """Concatenation product of AtMostOne / Power atoms (downward closed)."""

    atoms: Tuple[ProductAtom, ...]

    def check(self, space) -> None:
        base = _word_space_base(space)
        for atom in self.atoms:
            atom.closed.check(base)

    def member(self, space, p) -> bool:
        return _match_product(space.base, self.atoms, space.runs(p))


ClosedExpr = TUnion[EmptyC, WholeC, UnionC, IntersectC, DownClosure,
                    ComplementOf, OrdProduct]
_TERMS = get_args(OpenExpr) + get_args(ClosedExpr) + get_args(ProductAtom)
key_rows(_TERMS, by_name=True)


def _kept_hash(generated):
    """A set class's hash: its dataclass hash `generated`, kept on the term
    at first use, so set and dict orders do not change.  Points, mostly
    built afresh and hashed once or twice, keep the plain hash."""
    def __hash__(self):
        h = self._hash
        if h is None:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
        return h
    return __hash__


for _cls in _TERMS:
    _cls.__hash__ = _kept_hash(_cls.__hash__)


# -- membership ---------------------------------------------------------------


def member_open(space: SpaceExpr, p: PointTerm, u) -> bool:
    """Whether p lies in the set u, open or closed."""
    _require_fit(space, (p,))
    u.check(space)
    return u.member(space, p)


member_closed = member_open


def _require_fit(space: SpaceExpr, points) -> None:
    """`_require_points`, whose error is a SetError."""
    try:
        _require_points(space, points)
    except SpaceError as exc:
        raise SetError(*exc.args) from None


def _word_space_base(space):
    """The letter space of a word space, the guard of the word rules."""
    if isinstance(space, (Words, OrdWords)):
        return space.base
    raise SetError("word operation over non-word space %r" % (space,))


def _forest_space(space):
    """The space of the forests (children words) of a tree space."""
    if isinstance(space, Trees):
        return Words(space)
    return OrdWords(space, space.alpha)


def _suffixes_past(space, p, beta: Ordinal):
    """The suffixes of the word p past every position < beta, as points."""
    return map(space.point, ow_suffixes_strictly_after(space.runs(p), beta))


def _match_product(base, atoms, word: OrdWord) -> bool:
    """Split search: can `word` be written as consecutive chunks matching the
    atom list, with an ordinal length bound `beta` per atom?"""
    segments = word.segments

    def count(i):
        return segments[i][1] if i < len(segments) else ZERO

    seen = set()

    def match(ai: int, si: int, remaining: Ordinal) -> bool:
        key = (ai, si, remaining)
        if key in seen:
            return False
        seen.add(key)
        if ai == len(atoms):
            return si == len(segments)
        return consume(atoms[ai], ai, si, remaining, ZERO)

    def consume(atom: ProductAtom, ai, si, remaining, used: Ordinal) -> bool:
        if cmp(used, atom.beta) >= 0:
            return False  # the atom is full; taking more keeps it full
        if match(ai + 1, si, remaining):
            return True
        if si >= len(segments):
            return False
        letter = segments[si][0]
        if not atom.closed.member(base, letter):
            return False
        # Take the whole rest of this run, or stop inside it at one of the
        # finitely many distinct leftovers.  A partial take always consumes
        # the least possible amount for its leftover; taking more can only
        # hurt the length bound, and two partial takes of one run compose
        # into a single one.
        if consume(atom, ai, si + 1, count(si + 1), add(used, remaining)):
            return True
        for taken, rem in run_cuts(remaining)[1:-1]:
            if cmp(add(used, taken), atom.beta) < 0 and match(ai + 1, si, rem):
                return True
        return False

    return match(0, 0, count(0))


# -- normalization and canonical form ----------------------------------------


# Opens whose sort key is remembered, least recently used first out: the
# bench workloads keep at most about 2,900 of them.
OPEN_KEY_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=OPEN_KEY_MEMO_SIZE)
def open_key(u: OpenExpr):
    """Deterministic structural sort key."""
    return repr(canonical_key(u))


# The fields of each open constructor: True holds opens, False one, None none.
_OPEN_FIELDS = {cls: tuple(
    (f.name, {"OpenExpr": False, "Tuple[OpenExpr, ...]": True}.get(f.type))
    for f in fields(cls)) for cls in get_args(OpenExpr)}
# The open constructors with no open field: their fold is their `normal`.
_LEAF_OPENS = frozenset(cls for cls, opens in _OPEN_FIELDS.items()
                        if all(many is None for _, many in opens))


def normalize_open(u: OpenExpr) -> OpenExpr:
    """The normal form of an open, one structural fold: its open fields are
    normalised; a strict constructor with an empty one is empty; otherwise
    its class's `normal` rule rewrites it.  Closed sets and product atoms
    are left as they are."""
    return _normal_step(u, normalize_open)


def normalize_opens(family: Iterable[OpenExpr]) -> List[OpenExpr]:
    """`normalize_open` of each open of a family, folding each subterm
    object once however many opens embed it (a generator family embeds the
    same stage sources over and over).  The memo holds every term it is
    keyed on, so no id is reused while it lives."""
    memo: Dict[int, Tuple[OpenExpr, OpenExpr]] = {}

    def fold(u):
        got = memo.get(id(u))
        if got is None:
            got = memo[id(u)] = (u, _normal_step(u, fold))
        return got[1]

    return [fold(u) for u in family]


def _normal_step(u, norm):
    """The normal form of u, with `norm` normalising its open fields."""
    cls = type(u)
    if cls in _LEAF_OPENS:
        return u.normal()
    opens = _OPEN_FIELDS.get(cls)
    if opens is None:
        return u
    args, kids = [], []
    for name, many in opens:
        arg = getattr(u, name)
        if many is not None:
            arg = tuple(map(norm, arg)) if many else norm(arg)
            kids.extend(arg if many else (arg,))
        args.append(arg)
    if not kids:
        return u.normal()
    if u.strict and any(isinstance(kid, Empty) for kid in kids):
        return Empty()
    return cls(*args).normal()


# -- extent oracle ------------------------------------------------------------


def _bits(mask: int):
    """Indices of the set bits of a mask, in increasing order."""
    text = bin(mask)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def _mask_where(flags: List[bool]) -> int:
    """The mask whose bit i is set exactly when flags[i] is true."""
    return int("".join("1" if f else "0" for f in reversed(flags)) or "0", 2)


class ExtentOracle:
    """Brute-force extents over an enumerated universe, memoized per expr.

    An extent is an int bitmask over the universe: bit i stands for
    `universe[i]`.  Each set class computes its own mask (`mask`): from
    its parts' masks (a closed twin by its open twin's rule, a complement
    or a carrier from its part's), from the tables below, or, for a leaf
    constructor, by the default pass of membership over the universe.
    `mask` checks a term it has no mask of yet (`_Set.check`); the rules
    read the masks of their parts, which that check covered, by `_mask`.
    Universe points typecheck by construction, so the oracle calls the
    memoised point order `_leq` without `point_leq`'s checks.

    The word and substructure rules read the universe through one table
    of mask rows, `_relations`, keyed by relation and filled on first read
    (`_rows`), so that each prepend, suffix, substructure and glue is built
    once per oracle.  With n = |U| points, row i of each relation is the
    mask of the points related to point i that lie in the universe:
    - ("prepend", a): the word a.(point i), over words and ordinal words
      alike;
    - ("suffix", b): the suffixes of point i past every position < b;
    - "substructure": the substructures of point i (its suffixes or
      subtrees, itself included);
    - ("glue", i): row j is the glue of points i and j, composed from the
      prepend rows of point i's letters (`_glue_rows`).
    Each relation has n rows.  Beside them, `_up`: entry i is the mask of
    the points above point i, n entries; and `_minimal`: the mask of the
    minimal points of a mask, one entry per mask read."""

    def __init__(self, space: SpaceExpr, bound: int):
        self.space = space
        self.bound = bound
        self.universe = enumerate_points(space, bound)
        self.index = {p: i for i, p in enumerate(self.universe)}
        self.full = (1 << len(self.universe)) - 1
        self._open: Dict[OpenExpr, int] = {}
        self._closed: Dict[ClosedExpr, int] = {}
        self._minimal: Dict[int, int] = {}
        self._up: List[Optional[int]] = [None] * len(self.universe)
        self._relations: Dict[object, List[int]] = {}

    def mask(self, s) -> int:
        """The mask of the set s, checked against the space on a miss."""
        got = (self._closed if isinstance(s, _ClosedSet) else self._open).get(s)
        if got is None:
            s.check(self.space)
            got = self._mask(s)
        return got

    def _mask(self, s) -> int:
        """`mask` of a term whose check is done."""
        # Memoized on the expression itself; structurally equal expressions
        # share an entry.  A term hashes once (`_kept_hash`), so a probe
        # costs no walk of the term, nor does the store after a miss.
        memo = self._closed if isinstance(s, _ClosedSet) else self._open
        got = memo.get(s)
        if got is None:
            got = memo[s] = s.mask(self)
        return got

    def mask_of(self, points) -> int:
        """The mask of those of `points` that lie in the universe."""
        out = 0
        for p in points:
            i = self.index.get(p)
            if i is not None:
                out |= 1 << i
        return out

    def _filter(self, keep) -> int:
        """The mask of the universe points satisfying `keep`."""
        return _mask_where(list(map(keep, self.universe)))

    def _ups(self, mask: int) -> List[Optional[int]]:
        """The up table, the meet table of the upward-closed sets: entry i
        is the mask of the points above universe[i].  Entries are built on
        demand; those of the points of `mask` are built on return."""
        for i in _bits(mask):
            if self._up[i] is None:
                p = self.universe[i]
                self._up[i] = self._filter(lambda q: _leq(self.space, p, q))
        return self._up

    def _up_of(self, mask: int) -> int:
        """The mask of the points above some point of `mask`."""
        up = self._ups(mask)
        return reduce(or_, (up[i] for i in _bits(mask)), 0)

    def _minimals(self, mask: int) -> int:
        """The mask of the minimal points of a mask, one per equivalence
        class (the first in enumeration order)."""
        got = self._minimal.get(mask)
        if got is None:
            universe = self.universe
            got = self._minimal[mask] = sum(1 << i for i in minimize_basis(
                _bits(mask),
                lambda i, j: _leq(self.space, universe[i], universe[j])))
        return got

    def _rows(self, key, related) -> List[int]:
        """The rows of the relation `key`, filled on first read: row i is
        the mask of the points of `related(universe[i])` in the universe."""
        rows = self._relations.get(key)
        if rows is None:
            rows = self._relations[key] = list(
                map(self.mask_of, map(related, self.universe)))
        return rows

    def _cons_rows(self, letter: PointTerm) -> List[int]:
        """The rows of ("prepend", letter) over a word space."""
        cons = self.space.cons
        return self._rows(("prepend", letter), lambda w: (cons(letter, w),))

    def _glue_rows(self, i: int) -> List[int]:
        """The rows of ("glue", i): the prepend rows of point i's letters
        composed, from the last letter to the first, by indexing (an entry
        of a prepend row is one bit or none).  Exact: the universe is
        downward closed, so it holds every suffix of a glue it holds."""
        rows = self._relations.get(("glue", i))
        if rows is None:
            letters, p, uncons = [], self.universe[i], self.space.uncons
            while (step := uncons(p)) is not None:
                letter, p = step
                letters.append(letter)
            rows = [1 << j for j in range(len(self.universe))]
            for letter in reversed(letters):
                step = self._cons_rows(letter)
                rows = [m and step[m.bit_length() - 1] for m in rows]
            self._relations[("glue", i)] = rows
        return rows

    def _with_substructure_in(self, mask: int) -> int:
        """The mask of the points with a substructure (the point itself
        included) in `mask`.  The universe is downward closed and holds
        every substructure of its points."""
        rows = self._rows("substructure", self.space.substructures)
        return _mask_where([row & mask for row in rows])

    def stats(self) -> dict:
        """Its space, bound and universe size, the entry counts of its
        memos, and under `rows` the row count of each relation."""
        return {"space": self.space, "bound": self.bound,
                "universe": len(self.universe), "open": len(self._open),
                "closed": len(self._closed), "minimal": len(self._minimal),
                "up_entries": sum(e is not None for e in self._up),
                "rows": {key: len(rows)
                         for key, rows in self._relations.items()}}

    def points(self, mask: int) -> List[PointTerm]:
        """The points of a mask, in enumeration order."""
        return [self.universe[i] for i in _bits(mask)]

    def extent(self, s) -> frozenset:
        return frozenset(self.points(self.mask(s)))

    def extent_list(self, s) -> Tuple[PointTerm, ...]:
        return tuple(self.points(self.mask(s)))


# The most extent oracles kept at once; the oldest is dropped first.
MAX_ORACLES = 64
_ORACLES: Dict[Tuple[SpaceExpr, int], ExtentOracle] = {}


def oracle_for(space: SpaceExpr, bound: int) -> ExtentOracle:
    """The kept oracle of (space, bound).  A negative bound is an error: its
    empty universe would answer every extent question vacuously."""
    if bound < 0:
        raise SetError("the extent bound must be at least 0, got %d" % bound)
    key = (space, bound)
    oracle = _ORACLES.get(key)
    if oracle is None:
        oracle = ExtentOracle(space, bound)
        if len(_ORACLES) >= MAX_ORACLES:
            del _ORACLES[next(iter(_ORACLES))]
        _ORACLES[key] = oracle
    return oracle


def extent(space: SpaceExpr, s, bound: int) -> Tuple[PointTerm, ...]:
    """Points of the enumerated universe lying in s, in enumeration order."""
    return oracle_for(space, bound).extent_list(s)


# -- inclusion ----------------------------------------------------------------


@dataclass(frozen=True)
class IncludesResult:
    value: Optional[bool]  # True / False are sound; None is Unknown
    via: str
    bound: Optional[int] = None
    witness: Optional[PointTerm] = None


def includes(space: SpaceExpr, a: OpenExpr, b: OpenExpr,
             bound: int = DEFAULT_BOUND) -> IncludesResult:
    """Three-valued inclusion a <= b.  Exact on unions of upward closures and
    on letter-pattern word opens; otherwise decided by extents at `bound`
    (the bound is recorded in the result)."""
    a.check(space)
    b.check(space)
    return _includes(space, a, b, bound)


def _includes(space: SpaceExpr, a: OpenExpr, b: OpenExpr,
              bound: int) -> IncludesResult:
    """`includes` of two opens whose check is done."""
    a = normalize_open(a)
    b = normalize_open(b)
    if isinstance(a, Empty) or isinstance(b, Whole) or a == b:
        return IncludesResult(True, "syntactic")
    if isinstance(a, Union):
        carried = None  # the bound of the last part decided by extents
        for part in a.parts:
            r = _includes(space, part, b, bound)
            if r.value is not True:
                return r
            if r.bound is not None:
                carried = r.bound
        return IncludesResult(True, "union-left", bound=carried)
    up_a = _as_up_points(a)
    up_b = _as_up_points(b)
    if up_a is not None and up_b is not None:
        # A point of a found among those of b is covered by reflexivity.
        up_b = tuple(dict.fromkeys(up_b))
        known = set(up_b)
        for f in up_a:
            if f not in known and not any(_leq(space, g, f) for g in up_b):
                return IncludesResult(False, "up-closure", witness=f)
        return IncludesResult(True, "up-closure")
    if isinstance(a, WordOpen) and isinstance(b, WordOpen):
        return _word_open_rule(space, a, b, bound)
    if isinstance(b, Union):
        for part in b.parts:
            r = _includes(space, a, part, bound)
            if r.value is True:
                return IncludesResult(True, "union-right", bound=r.bound)
    try:
        oracle = oracle_for(space, bound)
    except SpaceError:  # a universe past space.MAX_UNIVERSE
        return IncludesResult(None, "no-extent-oracle")
    witness = _least_outside(oracle, a, b)
    if witness is not None:
        return IncludesResult(False, "extent", bound=bound, witness=witness)
    return IncludesResult(True, "extent", bound=bound)


def _least_outside(oracle: ExtentOracle, a, b) -> Optional[PointTerm]:
    """The least point (by canonical key) in the extent of a but not of b."""
    diff = oracle._mask(a) & ~oracle._mask(b)
    return min(oracle.points(diff), key=canonical_key) if diff else None


def _as_up_points(u) -> Optional[Tuple[PointTerm, ...]]:
    if isinstance(u, UpClosure):
        return u.points
    if isinstance(u, Empty):
        return ()
    if isinstance(u, Union):
        points = []
        for part in u.parts:
            sub = _as_up_points(part)
            if sub is None:
                return None
            points.extend(sub)
        return tuple(points)
    return None


def _word_open_rule(space, a: WordOpen, b: WordOpen, bound) -> IncludesResult:
    """<U1..Un> <= <V1..Vm> iff a strictly increasing h with U_h(j) <= V_j:
    the Higman match of b's parts into a's, where a part fits the parts
    that it includes.  A True answer carries the bound its letter
    inclusions were decided at when one of them was decided by extents."""
    bounded = False  # whether an inclusion the match used had a bound

    def fits(v, u) -> bool:
        nonlocal bounded
        r = _includes(space.base, u, v, bound)
        bounded = bounded or (r.value is True and r.bound is not None)
        return r.value is True

    if higman_leq(b.parts, a.parts, fits):
        return IncludesResult(True, "wordopen-rule",
                              bound=bound if bounded else None)
    # A witness needs only one letter per left-hand part.
    oracle = oracle_for(space, max(bound, len(a.parts)))
    return IncludesResult(False, "wordopen-rule",
                          witness=_least_outside(oracle, a, b))


def find_good_index(space: SpaceExpr, seq, bound: int = DEFAULT_BOUND):
    """Least i whose open is included in the union of its predecessors, with
    the inclusion evidence of `includes`; None if the sequence is bad
    throughout.

    One incremental pass.  While the opens read so far normalise to unions
    of upward closures, the inclusion at i is decided against the running
    set of their points: a point already in the set is covered, since the
    point order is reflexive, and a new point is typechecked once as it
    enters and compared with the known points, newest first, until one
    lies below it.  So the cost is up to quadratic in the log's distinct
    points, not linear: a coverability log of 25 opens over 125 distinct
    points takes 1,465 comparisons.  An open of another shape, or one whose
    normal form is another term (normalising may drop a part), is checked
    whole as it is read (`_Set.check`).  An open of another shape, and the
    one index found included, is asked of `includes` against the union of
    its predecessors, which gives the evidence."""
    known: Dict[PointTerm, None] = {}  # the points read so far, oldest first
    all_up = True
    for i, u in enumerate(seq):
        v = normalize_open(u) if all_up else None
        points = None if v is None else _as_up_points(v)
        if points is None or v is not u:
            u.check(space)
        if points is None:
            all_up = False
            candidate = True
        else:
            fresh = tuple(dict.fromkeys(f for f in points if f not in known))
            _require_points(space, fresh)
            candidate = all(any(_leq(space, g, f) for g in reversed(known))
                            for f in fresh)
            known.update(dict.fromkeys(fresh))
        if candidate:
            r = _includes(space, u, Union(tuple(seq[:i])), bound)
            if r.value is True:
                return i, r
    return None


# -- closures, restriction, specialisation ------------------------------------


def up_closure(space: SpaceExpr, points: Iterable[PointTerm]) -> OpenExpr:
    """Upward closure of finitely many points, with the basis minimized to
    an antichain."""
    return normalize_open(UpClosure(minimize_basis(
        points, lambda p, q: point_leq(space, p, q), canonical_key)))


def closure_point(space: SpaceExpr, p: PointTerm) -> ClosedExpr:
    """Topological closure of a single point.  Over word spaces this is the
    product of per-letter down-closures (one AtMostOne atom per letter),
    defined for finite-length words; elsewhere it is the down-closure."""
    _require_fit(space, (p,))
    if isinstance(space, (Words, OrdWords)):
        letters = ord_to_word(space.runs(p)).letters
        return OrdProduct(tuple(AtMostOne(DownClosure((letter,)))
                                for letter in letters))
    return DownClosure((p,))


@dataclass(frozen=True)
class TopologyDesc:
    """A finitely generated topology: a subbasis, optionally cut to a closed
    carrier (the restricted topology tau|H)."""

    space: SpaceExpr
    subbasis: Tuple[OpenExpr, ...]
    carrier: Optional[ClosedExpr] = None

    def effective_subbasis(self) -> Tuple[OpenExpr, ...]:
        if self.carrier is None:
            return self.subbasis
        mark = CarrierOpen(self.carrier)
        return tuple(normalize_open(Intersect((u, mark))) for u in self.subbasis)


def restrict(t: TopologyDesc, h: ClosedExpr,
             bound: int = DEFAULT_BOUND) -> TopologyDesc:
    """The subset restriction tau|H: generated by the opens U /\\ H.

    `h` must be closed in t, i.e. its complement must be open in the
    generated topology; this is verified extensionally at `bound`."""
    if isinstance(h, WholeC):
        return t
    if not _closed_in(t, h, bound):
        raise SetError("carrier is not closed in the topology at bound %d"
                       % bound)
    return TopologyDesc(t.space, t.effective_subbasis(), h)


def _closed_in(t: TopologyDesc, h: ClosedExpr, bound: int) -> bool:
    # Accept carriers whose complement is a generated open, and also any
    # carrier that is downward closed in the embedding order (closed in the
    # Alexandroff refinement every stage topology sits below).
    oracle = oracle_for(t.space, bound)
    outside = oracle.full & ~oracle.mask(h)
    table = meet_table([oracle.mask(u) for u in t.effective_subbasis()],
                       oracle.full)
    return (lattice_contains(table, outside)
            or lattice_contains(oracle._ups(outside), outside))


def meet_table(gens: Iterable[int], full: int) -> List[int]:
    """Entry i is the meet (AND) of the generator masks containing bit i,
    `full` when none does.  It is the mask of the points above point i in
    the specialisation preorder of the generators, so two families generate
    the same lattice (under finite unions and intersections, with empty and
    whole) exactly when their meet tables are equal."""
    table = [full] * full.bit_length()
    for g in set(gens):
        for i in _bits(g):
            table[i] &= g
    return table


def lattice_contains(table: List[int], target: int) -> bool:
    """Whether the mask target lies in the lattice whose meet table is
    `table`: it must hold the meet of every point it holds."""
    outside = ~target
    return not any(table[i] & outside for i in _bits(target))


def spec_leq(t: TopologyDesc, x: PointTerm, y: PointTerm) -> bool:
    """Specialisation preorder of the generated topology: every subbasic open
    containing x contains y."""
    _require_fit(t.space, (x, y))
    opens = t.effective_subbasis()
    for u in opens:
        u.check(t.space)
    return not any(u.member(t.space, x) and not u.member(t.space, y)
                   for u in opens)


def spec_leq_restricted(t: TopologyDesc, h: ClosedExpr, x: PointTerm,
                        y: PointTerm, bound: int = DEFAULT_BOUND) -> bool:
    """Specialisation preorder of the subset restriction tau|H, computed from
    the definition (not from the closed-carrier shortcut formula)."""
    return spec_leq(restrict(t, h, bound=bound), x, y)


# -- the ordinal-product complement and the prefix-guard rewrites --------------


def base_complement(base: SpaceExpr, f: ClosedExpr) -> BaseOpen:
    """Complement of a closed subset of a finite base, as a BaseOpen."""
    if not isinstance(base, FiniteQO):
        raise SetError("base complement needs a finite base")
    f.check(base)
    names = frozenset(n for n in base.elements
                      if not f.member(base, Atom(n)))
    return BaseOpen(names)


def complement_ordinal_product(space: SpaceExpr, p: OrdProduct) -> OpenExpr:
    """Open complement of an ordinal product, built by the right-to-left
    induction: the complement of the empty product {eps} is <Whole>, and
    prepending an atom F (with length bound b) turns a complement U into
    (F |x U) union (b |> U).

    Exponents l+k with a finite part k >= 1 above a limit l are normalized
    to F^{<l} . (F^{<=1})^{k-1}, which has the same finite-length extent;
    on genuinely ordinal-length words the result is only an approximation
    for such exponents."""
    if len(p.atoms) == 1 and isinstance(p.atoms[0], Power):
        atom = p.atoms[0]
        alpha = getattr(space, "alpha", None)
        if isinstance(atom.closed, WholeC) and alpha is not None \
                and cmp(atom.beta, alpha) >= 0:
            return Empty()
    steps = []
    for atom in p.atoms:
        limit, k = limit_finite_split(atom.beta)
        if limit.is_zero():
            steps.extend([(atom.closed, ONE)] * (k - 1))
        else:
            steps.append((atom.closed, limit))
            steps.extend([(atom.closed, ONE)] * max(k - 1, 0))
    u: OpenExpr = WordOpen((Whole(),))
    for f, beta in reversed(steps):
        u = normalize_open(Union((RTimes(f, u), Triangle(beta, u))))
    return u


def rtimes_rewrite(space: SpaceExpr, f: ClosedExpr, u: OpenExpr) -> OpenExpr:
    """Rewrite F |x U into generator form for the three supported U shapes:
    a one-letter pattern <W>, a concatenation closure UV, and a triangle.
    With W^c the base complement of F, a triangle b |> U rewrites to
    <W^c>.(b |> U) at a limit b, to <W^c>.(b-1 |> U) at a successor b >= 2,
    and to <W^c>.U at 1: the rest must still lie in U, though 0 |> U is the
    whole space.  Other shapes raise RewriteShapeError (callers use extents)."""
    base = _word_space_base(space)
    fc = base_complement(base, f)
    u = normalize_open(u)
    if isinstance(u, WordOpen) and len(u.parts) == 1:
        w = u.parts[0]
        return normalize_open(Union((
            WordOpen((Intersect((w, fc)),)),
            WordOpen((fc, w)),
        )))
    if isinstance(u, WordOpen) and len(u.parts) > 1:
        # <W1,...,Wn> = up(<W1> <W2..Wn>); recurse on the head.
        head = WordOpen((u.parts[0],))
        tail = WordOpen(u.parts[1:])
        return normalize_open(ConcatUp(rtimes_rewrite(space, f, head), tail))
    if isinstance(u, ConcatUp):
        return normalize_open(ConcatUp(rtimes_rewrite(space, f, u.left), u.right))
    if isinstance(u, Triangle):
        kind, pred = classify(u.beta)
        rest = (u if kind == "limit" else
                u.inner if pred.is_zero() else Triangle(pred, u.inner))
        return normalize_open(ConcatUp(WordOpen((fc,)), rest))
    raise RewriteShapeError("unsupported shape for the prefix-guard rewrite: %r"
                            % (u,))
