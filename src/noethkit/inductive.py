"""Inductive datatypes: polynomial+list functors, their bounded initial
algebras, support and substructure orders, and the staged divisibility
preorder, together with the unfold-based refinement rule whose fixed point
coincides with the Alexandroff topology of that preorder.

An element of the initial algebra is its own one-step unfolding: a functor
value whose identity positions hold further elements.  Stage n holds the
elements of depth at most n; stage 0 is empty.

Each functor class holds its rules: `lift`, the order lift; `occurrences`,
the identity-position contents of a one-step value; `values`, its one-step
values over a pool; `grounded`, whether the empty pool has values; and
`has_list`.  Each element class holds `size()`.  Adding a functor takes its
class with these rules, its place in `FunctorExpr`, and one grammar row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Callable, FrozenSet, List, Optional, Sequence, Tuple,
                    Union as TUnion, get_args)

from .expanders import PrefixExpander, TreeExpander
from .sets import OpenExpr, UpSubstructure, Whole
from .sexpr import (PRINTERS, SexprError, grammar, parse_row, parse_space,
                    print_space, print_term, read, shaped)
from .space import (
    FiniteQO,
    PointTerm,
    SpaceExpr,
    TreeNode,
    Word,
    canonical_key,
    enumerate_points,
    higman_leq,
    key_rows,
    point_leq,
    transitive_closure,
)


class FunctorError(ValueError):
    pass


# -- functor grammar ------------------------------------------------------------


def _true(self) -> bool:
    return True


def _false(self) -> bool:
    return False


def _no_occurrences(self, v) -> tuple:
    return ()


@dataclass(frozen=True)
class UnitF:
    grounded, has_list, occurrences = _true, _false, _no_occurrences

    def values(self, pool, size_cap):
        return (MUnit(),)

    def lift(self, base, x, y) -> bool:
        return True


@dataclass(frozen=True)
class ConstF:
    space: SpaceExpr
    grounded, has_list, occurrences = _true, _false, _no_occurrences

    def values(self, pool, size_cap):
        return tuple(MConst(p) for p in enumerate_points(self.space, 1))

    def lift(self, base, x, y) -> bool:
        return point_leq(self.space, x.point, y.point)


@dataclass(frozen=True)
class IdF:
    grounded = has_list = _false

    def occurrences(self, v):
        return (v,)

    def values(self, pool, size_cap):
        return tuple(pool)

    def lift(self, base, x, y) -> bool:
        return base(x, y)


@dataclass(frozen=True)
class SumF:
    left: "FunctorExpr"
    right: "FunctorExpr"

    def grounded(self) -> bool:
        return self.left.grounded() or self.right.grounded()

    def has_list(self) -> bool:
        return self.left.has_list() or self.right.has_list()

    def occurrences(self, v):
        if isinstance(v, MInL):
            return self.left.occurrences(v.value)
        if isinstance(v, MInR):
            return self.right.occurrences(v.value)
        raise FunctorError("value does not fit the sum functor")

    def values(self, pool, size_cap):
        return (tuple(MInL(v) for v in self.left.values(pool, size_cap))
                + tuple(MInR(v) for v in self.right.values(pool, size_cap)))

    def lift(self, base, x, y) -> bool:
        # Values of different injections are incomparable.
        side = self.left if isinstance(x, MInL) else self.right
        return type(x) is type(y) and side.lift(base, x.value, y.value)


@dataclass(frozen=True)
class ProdF:
    left: "FunctorExpr"
    right: "FunctorExpr"
    has_list = SumF.has_list

    def grounded(self) -> bool:
        return self.left.grounded() and self.right.grounded()

    def occurrences(self, v):
        return itertools.chain(self.left.occurrences(v.left),
                               self.right.occurrences(v.right))

    def values(self, pool, size_cap):
        rights = self.right.values(pool, size_cap)
        return tuple(MPair(l, r) for l in self.left.values(pool, size_cap)
                     for r in rights
                     if size_cap is None or l.size() + r.size() <= size_cap)

    def lift(self, base, x, y) -> bool:
        return (self.left.lift(base, x.left, y.left)
                and self.right.lift(base, x.right, y.right))


@dataclass(frozen=True)
class ListF:
    inner: "FunctorExpr"
    grounded = has_list = _true  # grounded by the empty list

    def occurrences(self, v):
        return [o for item in v.items for o in self.inner.occurrences(item)]

    def values(self, pool, size_cap):
        inners = self.inner.values(pool, size_cap)
        out: List[MuElement] = []

        def extend(items: List[MuElement], budget: int):
            out.append(MList(tuple(items)))
            for v in inners:
                cost = v.size()
                if cost <= budget:
                    items.append(v)
                    extend(items, budget - cost)
                    items.pop()

        extend([], (size_cap or 0) - 1)
        return tuple(out)

    def lift(self, base, x, y) -> bool:
        return higman_leq(x.items, y.items,
                          lambda a, b: self.inner.lift(base, a, b))


FunctorExpr = TUnion[UnitF, ConstF, IdF, SumF, ProdF, ListF]


def words_functor(base: FiniteQO) -> FunctorExpr:
    """X -> 1 + base * X, whose initial algebra is finite words."""
    return SumF(UnitF(), ProdF(ConstF(base), IdF()))


def trees_functor(base: FiniteQO) -> FunctorExpr:
    """X -> base * X*, whose initial algebra is finite rooted trees."""
    return ProdF(ConstF(base), ListF(IdF()))


# -- elements -------------------------------------------------------------------


@dataclass(frozen=True)
class MUnit:
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class MConst:
    point: PointTerm
    size = MUnit.size


@dataclass(frozen=True)
class MPair:
    left: "MuElement"
    right: "MuElement"

    def size(self) -> int:
        return self.left.size() + self.right.size()


@dataclass(frozen=True)
class MInL:
    value: "MuElement"

    def size(self) -> int:
        return self.value.size()


@dataclass(frozen=True)
class MInR:
    value: "MuElement"
    size = MInL.size


@dataclass(frozen=True)
class MList:
    items: Tuple["MuElement", ...]

    def size(self) -> int:
        return 1 + sum(x.size() for x in self.items)


MuElement = TUnion[MUnit, MConst, MPair, MInL, MInR, MList]


key_rows(get_args(MuElement))


def support(f: FunctorExpr, value: MuElement) -> Tuple[MuElement, ...]:
    """The set of identity-position contents of a one-step value (for
    polynomial+list functors, the occurrence set), in order of first
    occurrence."""
    return tuple(dict.fromkeys(f.occurrences(value)))


def mu_depth(f: FunctorExpr, m: MuElement) -> int:
    kids = support(f, m)
    if not kids:
        return 1
    return 1 + max(mu_depth(f, k) for k in kids)


def substructure_leq(f: FunctorExpr, a: MuElement, b: MuElement) -> bool:
    """Reflexive-transitive closure of membership in the unfolding support."""
    if a == b:
        return True
    return any(substructure_leq(f, a, c) for c in support(f, b))


# -- stage enumeration -----------------------------------------------------------


def enumerate_mu(f: FunctorExpr, depth: int,
                 size_cap: Optional[int] = None) -> Tuple[MuElement, ...]:
    """The elements of stage `depth` (empty at depth 0), deduplicated and
    sorted by size then canonical key.  Functors with list positions need a
    size cap to stay finite."""
    if f.has_list() and size_cap is None:
        raise FunctorError("list functors need a size cap to enumerate")
    if not f.grounded():
        raise FunctorError("the initial algebra is empty at finite depth")
    pool: Tuple[MuElement, ...] = ()
    for _ in range(depth):
        pool = f.values(pool, size_cap)
    return tuple(sorted(set(pool), key=lambda m: (m.size(), canonical_key(m))))


# -- staged divisibility preorder -------------------------------------------------


class DivisibilityTable:
    """Stage-n divisibility preorders over the bounded universes A_0..A_n
    (A_0 is empty): each stage is the transitive closure of the canonical
    order lift of the previous stage together with the support pairs
    child <= parent."""

    def __init__(self, f: FunctorExpr, depth: int, size_cap: Optional[int] = None):
        self.functor = f
        self.depth = depth
        self.size_cap = size_cap
        self.stages: List[Tuple[MuElement, ...]] = [()]
        self.relations: List[FrozenSet[Tuple[MuElement, MuElement]]] = [
            frozenset()]
        for n in range(1, depth + 1):
            universe = enumerate_mu(f, n, size_cap)
            self.relations.append(self._close(universe, self.relations[-1]))
            self.stages.append(universe)

    def _close(self, universe, prev_rel) -> FrozenSet:
        base = lambda a, b: (a, b) in prev_rel
        lift = self.functor.lift
        pairs = {(x, y) for x, y in itertools.product(universe, repeat=2)
                 if lift(base, x, y)}
        pairs.update((c, y) for y in universe for c in support(self.functor, y))
        return transitive_closure(pairs)

    def universe(self, n: Optional[int] = None) -> Tuple[MuElement, ...]:
        return self.stages[self.depth if n is None else n]

    def leq(self, a: MuElement, b: MuElement, n: Optional[int] = None) -> bool:
        return (a, b) in self.relations[self.depth if n is None else n]


def check_preorder_stability(f: FunctorExpr, n: int,
                             size_cap: Optional[int] = None) -> bool:
    """Whether the stage-n relation of the table is the divisibility order
    on A_n, computed apart by its recursive definition: x <= y iff the
    lift of <= relates x and y, or x <= c for some c in support(f, y).
    The lift compares only the identity-position contents of y, the
    objects `occurrences` lists, so the elements below y are found from
    those below each of them, read by object identity, one set per
    element."""
    table = DivisibilityTable(f, n, size_cap)
    universe = table.universe()
    below: dict = {}

    def down(y) -> FrozenSet[MuElement]:
        got = below.get(y)
        if got is None:
            kids = {id(c): down(c) for c in f.occurrences(y)}
            base = lambda a, b: a in kids[id(b)]
            got = below[y] = frozenset(
                x for x in universe if f.lift(base, x, y)).union(
                *kids.values())
        return got

    return {(x, y) for y in universe for x in down(y)} == table.relations[n]


# -- conversions to word / tree points --------------------------------------------


def _unfold_shape(f: FunctorExpr) -> Tuple[SpaceExpr, Callable, Callable]:
    """The ambient space of a functor's unfolding, the converter of its
    elements to points of that space, and the unfold rule's generator menu
    over stage sources: for the word shape 1 + S*X the nil summand's image
    Whole and the substructure-upward closures of the prefix rule's
    generators; for the tree shape S*List(X) the tree rule's subtree opens,
    whose children patterns have at most two letters.  S is a finite base."""
    match f:
        case SumF(UnitF(), ProdF(ConstF(FiniteQO() as base), IdF())):
            prefix = PrefixExpander(base)
            return prefix.space, mu_to_word, lambda sources: [Whole()] + [
                UpSubstructure(g) for g in prefix.fresh_generators(sources)]
        case ProdF(ConstF(FiniteQO() as base), ListF(IdF())):
            tree = TreeExpander(base)
            return tree.space, mu_to_tree, tree.fresh_generators
    raise FunctorError(
        "only the word shape 1 + S*X and the tree shape S*List(X) unfold "
        "to a supported ambient space: %r" % (f,))


def mu_to_word(m: MuElement) -> Word:
    letters = []
    while isinstance(m, MInR):
        letters.append(m.value.left.point)
        m = m.value.right
    if not isinstance(m, MInL):
        raise FunctorError("not a word-shaped element: %r" % (m,))
    return Word(tuple(letters))


def word_to_mu(w: Word) -> MuElement:
    m: MuElement = MInL(MUnit())
    for letter in reversed(w.letters):
        m = MInR(MPair(MConst(letter), m))
    return m


def mu_to_tree(m: MuElement) -> TreeNode:
    if not isinstance(m, MPair) or not isinstance(m.right, MList):
        raise FunctorError("not a tree-shaped element: %r" % (m,))
    return TreeNode(m.left.point, tuple(mu_to_tree(c) for c in m.right.items))


def tree_to_mu(t: TreeNode) -> MuElement:
    return MPair(MConst(t.label), MList(tuple(tree_to_mu(c) for c in t.children)))


# -- the unfold refinement rule ----------------------------------------------------


class UnfoldExpander:
    """Lifts stage opens through one functor unfolding and closes upward
    under the substructure order.  For the word shape the generators are
    suffix-closed head patterns; for the tree shape they are subtree opens.
    `space` is the ambient space and `to_point` converts elements to its
    points."""

    def __init__(self, functor: FunctorExpr):
        self.functor = functor
        self.space, self.to_point, self._menu = _unfold_shape(functor)

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return self._menu(sources)


# -- textual functor grammar (see sexpr) ---------------------------------------


def parse_functor(expr) -> FunctorExpr:
    """A functor from its text, which is read first, or from a read form."""
    return _parse_functor(read(expr) if isinstance(expr, str) else expr)


def _parse_functor(expr) -> FunctorExpr:
    if isinstance(expr, str):
        if expr == "unit":
            return UnitF()
        if expr == "id":
            return IdF()
        raise SexprError("unknown functor token %r" % expr)
    if not expr or not isinstance(expr[0], str):
        raise SexprError("expected a functor form, got %r" % (expr,))
    if expr[0] == "mu":
        return _parse_functor(shaped(expr, "(mu F)")[1])
    if expr[0] == "fin":
        return ConstF(parse_space(expr))
    return parse_row(expr, _FUNCTORS, "functor")


def _print_const(f: ConstF) -> str:
    # A (fin ...) space is a constant by itself; other spaces need (const S).
    text = print_space(f.space)
    return text if text.startswith("(fin ") else "(const %s)" % text


_FUNCTORS = grammar((ConstF, "(const S)"), (SumF, "(sum F G)"),
                    (ProdF, "(prod F G)"), (ListF, "(list F)"),
                    F=_parse_functor, G=_parse_functor)
PRINTERS.update({UnitF: lambda f: "unit", IdF: lambda f: "id",
                 ConstF: _print_const})
print_functor = print_term
