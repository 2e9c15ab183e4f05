"""The space algebra: constructors, point terms, and embedding quasi-orders.

Spaces are finite quasi-orders, naturals, binary sums/products, finite
words, finite trees, and their ordinal-length variants.  Points carry the
canonical embedding order of their constructor: the given relation on a
finite base, <= on naturals, componentwise on products, same-injection on
sums, Higman's subsequence embedding on words, and the homeomorphic
(children-order-respecting) embedding on trees.

Ordinal-length words are represented in finitely presented form: a finite
list of (letter, ordinal count) runs with distinct adjacent letters.

Each space class holds its rules `typecheck(p)`, `order(x, y)` (on points
that typecheck) and `enumerate(bound)`, and each point class `size()`; the
order rules recurse through the memo `_leq`, the enumeration rules through
`_enumerate`.  Word and tree spaces also hold the layout of their points,
which the set layer reads: on words `uncons` (the first letter and the
rest, None when empty), `splits` (the pairs u, v with uv = p),
`substructures` (the suffixes), `glue`, `pattern_leq` (the Higman match of
a pattern, an item fitting a letter when `fits(item, letter)`) and
`runs`/`point` (to runs of letters and back); on trees `substructures`
(the subtrees) and `forest` (a node's children as a word of the children
space).  Adding a space takes its class with these rules, its place in
`SpaceExpr`, and one `sexpr` grammar row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Iterable, Tuple, Union, get_args

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    _sort_key,
    add,
    cmp,
    left_subtract,
    run_cuts,
)


class SpaceError(ValueError):
    pass


# -- spaces -------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class FiniteQO:
    """Finite quasi-order; leq holds the full (reflexive, transitive) relation."""

    elements: Tuple[str, ...]
    leq: frozenset  # of (str, str) pairs

    def __post_init__(self):
        elems = frozenset(self.elements)
        object.__setattr__(self, "element_set", elems)
        if len(elems) != len(self.elements):
            raise SpaceError("duplicate elements")
        for x, y in self.leq:
            if x not in elems or y not in elems:
                raise SpaceError("relation mentions unknown element")
        for x in self.elements:
            if (x, x) not in self.leq:
                raise SpaceError("relation is not reflexive at %r" % x)
        if transitive_closure(self.leq) != self.leq:
            raise SpaceError("relation is not transitive: %r %r %r" % min(
                (x, y, z) for x, y in self.leq for z in self.elements
                if (y, z) in self.leq and (x, z) not in self.leq))
        # Discrete: leq holds the reflexive pairs only.
        object.__setattr__(self, "is_discrete", len(self.leq) == len(elems))

    def __repr__(self):
        # The pairs in sorted order, so that an error message naming the
        # space reads the same under every hash seed.
        pairs = ", ".join(map(repr, sorted(self.leq)))
        return "FiniteQO(elements=%r, leq=frozenset(%s))" % (
            self.elements, "{%s}" % pairs if pairs else "")

    def holds(self, x: str, y: str) -> bool:
        return (x, y) in self.leq

    def up_set(self, names: Iterable[str]) -> frozenset:
        return frozenset(y for y in self.elements
                         if any(self.holds(x, y) for x in names))

    def down_set(self, names: Iterable[str]) -> frozenset:
        return frozenset(y for y in self.elements
                         if any(self.holds(y, x) for x in names))

    def typecheck(self, p) -> bool:
        return isinstance(p, Atom) and p.name in self.element_set

    def order(self, x, y) -> bool:
        return self.holds(x.name, y.name)

    def enumerate(self, bound: int):
        return tuple(Atom(n) for n in self.elements) if bound >= 1 else ()


def discrete(*names: str) -> FiniteQO:
    return FiniteQO(tuple(names), frozenset((n, n) for n in names))


def finite_qo(names: Iterable[str], pairs: Iterable[Tuple[str, str]]) -> FiniteQO:
    """Build a FiniteQO from generating pairs (reflexive-transitive closure)."""
    names = tuple(names)
    return FiniteQO(names, transitive_closure(
        itertools.chain(((n, n) for n in names), pairs)))


def transitive_closure(pairs: Iterable[Tuple]) -> frozenset:
    """The transitive closure of a relation given by its pairs: each
    element's successor set takes in its successors' sets until none grows."""
    succ: dict = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    changed = True
    while changed:
        changed = False
        for ys in succ.values():
            grow = set()
            for y in ys:
                grow.update(succ.get(y, ()))
            if not grow <= ys:
                ys |= grow
                changed = True
    return frozenset((x, y) for x, ys in succ.items() for y in ys)


def chain(*names: str) -> FiniteQO:
    return finite_qo(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


@dataclass(frozen=True)
class Nat:
    def typecheck(self, p) -> bool:
        return isinstance(p, NatVal)

    def order(self, x, y) -> bool:
        return x.n <= y.n

    def enumerate(self, bound: int):
        _check_universe(bound + 1)
        return tuple(NatVal(n) for n in range(bound + 1))


@dataclass(frozen=True)
class Sum:
    left: "SpaceExpr"
    right: "SpaceExpr"

    def typecheck(self, p) -> bool:
        if isinstance(p, InL):
            return self.left.typecheck(p.value)
        return isinstance(p, InR) and self.right.typecheck(p.value)

    def order(self, x, y) -> bool:
        # Points of different injections are incomparable.
        side = self.left if isinstance(x, InL) else self.right
        return type(x) is type(y) and _leq(side, x.value, y.value)

    def enumerate(self, bound: int):
        left = _enumerate(self.left, bound)
        right = _enumerate(self.right, bound)
        _check_universe(len(left) + len(right))
        return tuple(InL(p) for p in left) + tuple(InR(p) for p in right)


@dataclass(frozen=True)
class Product:
    left: "SpaceExpr"
    right: "SpaceExpr"

    def typecheck(self, p) -> bool:
        return (isinstance(p, Pair) and self.left.typecheck(p.left)
                and self.right.typecheck(p.right))

    def order(self, x, y) -> bool:
        return (_leq(self.left, x.left, y.left)
                and _leq(self.right, x.right, y.right))

    def enumerate(self, bound: int):
        left = _enumerate(self.left, bound)
        right = _enumerate(self.right, bound)
        _check_universe(len(left) * len(right))
        return tuple(Pair(l, r) for l in left for r in right)


@dataclass(frozen=True)
class Words:
    base: "SpaceExpr"

    def typecheck(self, p) -> bool:
        return isinstance(p, Word) and all(map(self.base.typecheck, p.letters))

    def order(self, x, y) -> bool:
        return higman_leq(x.letters, y.letters, partial(_leq, self.base))

    def enumerate(self, bound: int):
        # Breadth-first: the loop reads the queue it appends to.
        letters = [(x, max(x.size(), 1)) for x in _enumerate(self.base, bound)]
        words = [((), bound)]
        for prefix, remaining in words:
            for x, weight in letters:
                if weight <= remaining:
                    words.append((prefix + (x,), remaining - weight))
                    _check_universe(len(words))
        return tuple(Word(prefix) for prefix, _ in words)

    # The word rules (see the module docstring), on points that typecheck.
    def uncons(self, p):
        return (p.letters[0], Word(p.letters[1:])) if p.letters else None

    def splits(self, p):
        cuts = range(len(p.letters) + 1)
        return ((Word(p.letters[:i]), Word(p.letters[i:])) for i in cuts)

    def substructures(self, p):
        return tuple(Word(p.letters[i:]) for i in range(len(p.letters) + 1))

    def glue(self, u, v):
        return Word(u.letters + v.letters)

    def pattern_leq(self, pattern, p, fits) -> bool:
        return higman_leq(pattern, p.letters, fits)

    def runs(self, p):
        return word_to_ord(p)

    def point(self, runs):
        return ord_to_word(runs)


@dataclass(frozen=True)
class Trees:
    base: "SpaceExpr"

    def typecheck(self, p) -> bool:
        return (isinstance(p, TreeNode) and self.base.typecheck(p.label)
                and all(map(self.typecheck, p.children)))

    def order(self, x, y) -> bool:
        # Homeomorphic embedding: sink into a child, or match the root and
        # embed the children Higman-wise, with subtree pairs memoised.  This
        # is the specialisation order of the tree topology (and the
        # divisibility order of the tree unfolding).
        return (any(_leq(self, x, c) for c in y.children)
                or (_leq(self.base, x.label, y.label)
                    and higman_leq(x.children, y.children,
                                   partial(_leq, self))))

    def enumerate(self, bound: int):
        return _enumerate_trees(self, bound, runs=False)

    # The tree rules (see the module docstring), on points that typecheck.
    def substructures(self, t):
        out = [t]
        for node in out:  # breadth-first: the loop reads the list it extends
            out.extend(node.children)
        return tuple(out)

    def forest(self, t):
        return Word(t.children)  # a point of Words(self)


@dataclass(frozen=True)
class OrdWords:
    base: "SpaceExpr"
    alpha: Ordinal

    def __post_init__(self):
        if self.alpha.is_zero():
            raise SpaceError("OrdWords needs alpha > 0")

    def typecheck(self, p) -> bool:
        return (isinstance(p, OrdWord)
                and all(self.base.typecheck(x) for x, _ in p.segments)
                and cmp(ow_length(p), self.alpha) < 0)

    def order(self, x, y) -> bool:
        return ow_higman_leq(x.segments, y.segments, partial(_leq, self.base))

    def enumerate(self, bound: int):
        letters = [(x, max(x.size(), 1)) for x in _enumerate(self.base, bound)]
        runs = [((), bound, None)]
        for prefix, remaining, last in runs:
            for x, weight in letters:
                if x == last:
                    continue
                for count in range(1, remaining // weight + 1):
                    runs.append((prefix + ((x, Ordinal.from_int(count)),),
                                 remaining - weight * count, x))
                    _check_universe(len(runs))
        words = (OrdWord(prefix) for prefix, _, _ in runs)
        return tuple(p for p in words if self.typecheck(p))

    # The word rules of Words, over runs.
    def uncons(self, p):
        if not p.segments:
            return None
        (letter, count), rest = p.segments[0], p.segments[1:]
        # The rest of the run is c' with 1 + c' = c: c itself if infinite.
        return letter, ord_word(((letter, left_subtract(ONE, count)),) + rest)

    def splits(self, p):
        """Candidate splits p = uv: every cut at a run boundary, then inside
        each run one cut per remainder r of `run_cuts`, at its least left
        part c, and at c + 1 .. c + 4 when r is infinite.  Exact on finite
        words; on an infinite run sound but not complete, since a run a^w
        is cut only at its ends: the split a^k . a^w (k >= 1) is never
        tried, and concatenation membership can wrongly answer false."""
        segs = p.segments
        pairs = [(ord_word(segs[:i]), OrdWord(segs[i:]))
                 for i in range(len(segs) + 1)]
        for i, (letter, count) in enumerate(segs):
            for low, rem in run_cuts(count)[1:-1]:
                suffix = OrdWord(((letter, rem),) + segs[i + 1:])
                cuts = [low]
                if not rem.is_finite():
                    cuts.extend(add(low, Ordinal.from_int(j))
                                for j in range(1, 5))
                pairs.extend((ord_word(segs[:i] + ((letter, cut),)), suffix)
                             for cut in cuts)
        return tuple(pairs)

    def substructures(self, p):
        # p, then what remains of each run after each of its cuts, followed
        # by the later runs.
        segs = p.segments
        out = [p]
        for i, (letter, count) in enumerate(segs):
            for _, rem in run_cuts(count)[1:]:
                run = () if rem.is_zero() else ((letter, rem),)
                out.append(OrdWord(run + segs[i + 1:]))
        return tuple(out)

    def glue(self, u, v):
        return ord_word(u.segments + v.segments)

    def pattern_leq(self, pattern, p, fits) -> bool:
        # Each item of the pattern is a run of one.
        return ow_higman_leq(tuple((item, ONE) for item in pattern),
                             p.segments, fits)

    def runs(self, p):
        return p

    point = runs  # an ordinal word is its own run view


@dataclass(frozen=True)
class OrdTrees:
    base: "SpaceExpr"
    alpha: Ordinal

    def __post_init__(self):
        if self.alpha.is_zero():
            raise SpaceError("OrdTrees needs alpha > 0")

    def typecheck(self, p) -> bool:
        return (isinstance(p, OrdTreeNode) and self.base.typecheck(p.label)
                and cmp(ow_length(p.children), self.alpha) < 0
                and all(self.typecheck(t) for t, _ in p.children.segments))

    def order(self, x, y) -> bool:
        # Trees' rule over the runs of the children.
        return (any(_leq(self, x, c) for c, _ in y.children.segments)
                or (_leq(self.base, x.label, y.label)
                    and ow_higman_leq(x.children.segments,
                                      y.children.segments,
                                      partial(_leq, self))))

    def enumerate(self, bound: int):
        return _enumerate_trees(self, bound, runs=True)

    # The tree rules of Trees, reading each run of children once.
    def substructures(self, t):
        out = [t]
        for node in out:
            out.extend(c for c, _ in node.children.segments)
        return tuple(out)

    def forest(self, t):
        return t.children  # a point of OrdWords(self, self.alpha)


SpaceExpr = Union[FiniteQO, Nat, Sum, Product, Words, Trees, OrdWords, OrdTrees]


# -- points -------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class NatVal:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise SpaceError("naturals only")

    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class Pair:
    left: "PointTerm"
    right: "PointTerm"

    def size(self) -> int:
        return max(self.left.size(), self.right.size())


@dataclass(frozen=True)
class InL:
    value: "PointTerm"

    def size(self) -> int:
        return self.value.size()


@dataclass(frozen=True)
class InR:
    value: "PointTerm"
    size = InL.size


@dataclass(frozen=True)
class Word:
    letters: Tuple["PointTerm", ...]

    def size(self) -> int:
        return sum(max(x.size(), 1) for x in self.letters)


@dataclass(frozen=True)
class TreeNode:
    label: "PointTerm"
    children: Tuple["PointTerm", ...]

    def size(self) -> int:
        return (max(self.label.size(), 1)
                + sum(c.size() for c in self.children))


@dataclass(frozen=True)
class OrdWord:
    """Finitely presented ordinal word: runs of (letter, count), count >= 1,
    adjacent letters distinct.  Use ord_word() to get the canonical form."""

    segments: Tuple[Tuple["PointTerm", Ordinal], ...]

    def __post_init__(self):
        prev = None
        for letter, count in self.segments:
            if count.is_zero():
                raise SpaceError("zero-length run")
            if prev is not None and prev == letter:
                raise SpaceError("adjacent runs must have distinct letters")
            prev = letter

    def size(self) -> int:
        total = 0
        for letter, count in self.segments:
            if not count.is_finite():
                raise SpaceError("infinite runs have no finite size")
            total += count.to_int() * max(letter.size(), 1)
        return total


@dataclass(frozen=True)
class OrdTreeNode:
    label: "PointTerm"
    children: OrdWord  # letters are OrdTreeNode subtrees

    def size(self) -> int:
        return max(self.label.size(), 1) + self.children.size()


PointTerm = Union[Atom, NatVal, Pair, InL, InR, Word, TreeNode, OrdWord, OrdTreeNode]


def ord_word(segments: Iterable[Tuple[PointTerm, Ordinal]]) -> OrdWord:
    """Canonicalize: drop empty runs, merge adjacent runs of equal letters."""
    merged: list = []
    for letter, count in segments:
        if count.is_zero():
            continue
        if merged and merged[-1][0] == letter:
            merged[-1] = (letter, add(merged[-1][1], count))
        else:
            merged.append((letter, count))
    return OrdWord(tuple(merged))


def word_to_ord(w: Word) -> OrdWord:
    return ord_word((letter, ONE) for letter in w.letters)


def ord_to_word(w: OrdWord) -> Word:
    """Expand a finitely-counted ordinal word into a plain word."""
    letters = []
    for letter, count in w.segments:
        if not count.is_finite():
            raise SpaceError("cannot expand an infinite run")
        letters.extend([letter] * count.to_int())
    return Word(tuple(letters))


def ow_length(w: OrdWord) -> Ordinal:
    total = ZERO
    for _, count in w.segments:
        total = add(total, count)
    return total


def ow_suffix_from(w: OrdWord, i: int) -> OrdWord:
    return OrdWord(w.segments[i:])


def ow_suffixes_strictly_after(w: OrdWord, below: Ordinal) -> Tuple[OrdWord, ...]:
    """The distinct suffixes w_{>g} for positions g < below (a finite set).

    Dropping the positions <= d of a run of length b leaves the remainder r
    of a cut (c, r) of `run_cuts(b)` when (d+1) + r = b.  The least such
    successor mu = d + 1 is c when c is a successor, c + 1 when r is
    infinite (r absorbs the trailing 1), and none exists otherwise.  The
    cut is kept when mu is at most the room the run has below `below`."""
    out = []
    seen = set()
    start = ZERO
    for i, (letter, count) in enumerate(w.segments):
        if cmp(start, below) >= 0:
            break
        room = left_subtract(start, below)
        for c, rem in run_cuts(count):
            if c.is_successor():
                mu = c
            elif rem.is_finite():
                continue
            else:
                mu = add(c, ONE)
            if cmp(mu, room) > 0:
                continue
            if rem.is_zero():
                suffix = OrdWord(w.segments[i + 1:])
            else:
                suffix = OrdWord(((letter, rem),) + w.segments[i + 1:])
            if suffix not in seen:
                seen.add(suffix)
                out.append(suffix)
        start = add(start, count)
    if cmp(ow_length(w), below) < 0:
        empty = OrdWord(())
        if empty not in seen:
            out.append(empty)
    return tuple(out)


# -- typechecking -------------------------------------------------------------


def typecheck(space: SpaceExpr, p: PointTerm) -> bool:
    """Whether p is a well-formed element of space."""
    return space.typecheck(p)


def _require_points(space: SpaceExpr, points: Iterable[PointTerm]) -> None:
    """Raise SpaceError naming the first point that does not typecheck."""
    for p in points:
        if not typecheck(space, p):
            raise SpaceError("point %r does not typecheck in %r"
                             % (p, space))


# -- embedding quasi-orders ---------------------------------------------------


def higman_leq(u: Tuple, v: Tuple, letter_leq: Callable) -> bool:
    """Subsequence embedding: a strictly increasing position map with
    letterwise domination.  Greedy leftmost matching."""
    j = 0
    for x in u:
        while j < len(v) and not letter_leq(x, v[j]):
            j += 1
        if j == len(v):
            return False
        j += 1
    return True


def ow_higman_leq(u: Tuple, v: Tuple, letter_leq: Callable) -> bool:
    """Higman embedding on the runs of finitely presented ordinal words,
    tuples of (letter, nonzero ordinal count): greedy run matching,
    consuming counts ordinal-wise."""
    i = 0
    need = u[0][1] if u else ZERO
    j = 0
    avail = v[0][1] if v else ZERO
    while i < len(u):
        if j >= len(v):
            return False
        if letter_leq(u[i][0], v[j][0]):
            if cmp(need, avail) <= 0:
                avail = left_subtract(need, avail)
                i += 1
                need = u[i][1] if i < len(u) else ZERO
                if avail.is_zero():
                    j += 1
                    avail = v[j][1] if j < len(v) else ZERO
            else:
                need = left_subtract(avail, need)
                j += 1
                avail = v[j][1] if j < len(v) else ZERO
        else:
            j += 1
            avail = v[j][1] if j < len(v) else ZERO
    return True


def point_leq(space: SpaceExpr, x: PointTerm, y: PointTerm) -> bool:
    """The canonical embedding quasi-order of the space constructor."""
    _require_points(space, (x, y))
    return _leq(space, x, y)


# Comparisons the point order remembers, least recently used first out: the
# bench workloads keep at most about 21,000 of them.
LEQ_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=LEQ_MEMO_SIZE)
def _leq(space: SpaceExpr, x: PointTerm, y: PointTerm) -> bool:
    return space.order(x, y)


def minimize_basis(items: Iterable, leq: Callable, key=None) -> Tuple:
    """The minimal elements of finitely many items under the quasi-order
    `leq`, one per equivalence class (the first in `key` order), sorted by
    `key`."""
    kept: list = []
    for s in sorted(set(items), key=key):
        if any(leq(k, s) for k in kept):
            continue
        kept = [k for k in kept if not leq(s, k)]
        kept.append(s)
    return tuple(sorted(kept, key=key))


# -- enumeration --------------------------------------------------------------


def canonical_key(t):
    """Deterministic total order on terms, for stable output: a structural
    fold over the term's dataclass fields, led by its tag (see `key_rows`).
    Ordinals fold to their order key and name sets to their sorted names."""
    try:
        return _KEYS[type(t)](t)
    except KeyError:
        raise SpaceError("no key for %r" % (t,)) from None


def key_rows(classes, by_name: bool = False) -> None:
    """Give each term class its `canonical_key` row: the tag is the class's
    position in `classes`, or its name when `by_name`."""
    for position, cls in enumerate(classes):
        _KEYS[cls] = _row_key(cls.__name__ if by_name else position,
                              fields(cls))


def _row_key(tag, parts):
    # Specialised by arity: the fold runs in every sort of points and opens.
    key = canonical_key
    getters = [attrgetter(f.name) for f in parts]
    if not getters:
        return lambda t, k=(tag,): k
    if len(getters) == 1:
        get, = getters
        if parts[0].type in ("str", "int"):  # its own key
            return lambda t: (tag, get(t))
        return lambda t: (tag, key(get(t)))
    get1, get2 = getters  # no term class has more than two fields
    return lambda t: (tag, key(get1(t)), key(get2(t)))


_KEYS: dict = {str: str, int: int, Ordinal: _sort_key,
               tuple: lambda t: tuple(map(canonical_key, t)),
               frozenset: lambda s: tuple(sorted(s))}
key_rows(get_args(PointTerm))


# The largest universe enumeration builds, in points; every extent oracle
# holds one mask bit and one up-set mask per point.
MAX_UNIVERSE = 1 << 16


def _check_universe(count: int) -> None:
    if count > MAX_UNIVERSE:
        raise SpaceError("the universe at this bound has more than %d points"
                         % MAX_UNIVERSE)


def enumerate_points(space: SpaceExpr, size_bound: int) -> Tuple[PointTerm, ...]:
    """All points of structural size <= size_bound, duplicate-free, sorted by
    (size, canonical key).  Ordinal words are enumerated with finite runs.
    Raises SpaceError as soon as a universe passes MAX_UNIVERSE points.

    The result is downward closed in the point order: every well-typed
    point below one of its points is in it.  It holds because of two rules
    of each class: the points' `size` never decreases along the spaces'
    `order` (and no point with an infinite run lies below one of finite
    runs), and each space's `enumerate` lists every well-typed point of
    finite runs within the bound.  The extent oracle relies on this for
    up-closure masks, so a new space or point class must keep it."""
    return tuple(sorted(set(_enumerate(space, size_bound)),
                        key=lambda p: (p.size(), canonical_key(p))))


def _enumerate(space: SpaceExpr, bound: int) -> Tuple[PointTerm, ...]:
    return space.enumerate(bound) if bound >= 0 else ()


def _enumerate_trees(space, bound: int, runs: bool) -> Tuple[PointTerm, ...]:
    """Trees, or with `runs` ordinal trees, of each size up to `bound`: a
    label and a forest of smaller trees; an ordinal tree's forest is a word
    of runs, kept when the tree typechecks."""
    labels = _enumerate(space.base, bound)
    by_size: dict = {}

    def trees_of_size(n: int) -> Tuple[PointTerm, ...]:
        if n in by_size:
            return by_size[n]
        out = []
        for label in labels:
            lw = max(label.size(), 1)
            if lw > n:
                continue
            for kids in _forests(n - lw, trees_of_size, runs):
                tree = (OrdTreeNode(label, OrdWord(kids)) if runs
                        else TreeNode(label, kids))
                if not runs or space.typecheck(tree):
                    out.append(tree)
                    _check_universe(len(out))
        by_size[n] = tuple(out)
        return by_size[n]

    result = []
    for n in range(1, bound + 1):
        result.extend(trees_of_size(n))
        _check_universe(len(result))
    return tuple(result)


def _forests(total: int, trees_of_size, runs: bool, last=None) -> Iterable[Tuple]:
    """All child tuples with sizes summing to exactly `total`; with `runs`,
    as (tree, count) runs whose adjacent trees differ."""
    if total == 0:
        yield ()
        return
    for first_size in range(1, total + 1):
        for first in trees_of_size(first_size):
            if runs and first == last:
                continue
            for count in range(1, total // first_size + 1 if runs else 2):
                item = (first, Ordinal.from_int(count)) if runs else first
                for rest in _forests(total - first_size * count,
                                     trees_of_size, runs, first):
                    yield (item,) + rest
