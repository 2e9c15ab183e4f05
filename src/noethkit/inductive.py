"""Inductive datatypes: polynomial+list functors, their bounded initial
algebras, support and substructure orders, and the staged divisibility
preorder, together with the unfold-based refinement rule whose fixed point
coincides with the Alexandroff topology of that preorder.

An element of the initial algebra is its own one-step unfolding: a functor
value whose identity positions hold further elements.  Stage n holds the
elements of depth at most n; stage 0 is empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union as TUnion, get_args)

from .expanders import _children_menu, _letter_subbasis
from .sets import (
    OpenExpr,
    PrefixConcat,
    TreeOpen,
    UpSubstructure,
    Whole,
)
from .sexpr import (PRINTERS, SexprError, grammar, parse_row, parse_space,
                    print_space, print_term, read, shaped)
from .space import (
    FiniteQO,
    PointTerm,
    SpaceExpr,
    TreeNode,
    Trees,
    Word,
    Words,
    canonical_key,
    enumerate_points,
    higman_leq,
    key_rows,
    point_leq,
)


class FunctorError(ValueError):
    pass


# -- functor grammar ------------------------------------------------------------


@dataclass(frozen=True)
class UnitF:
    pass


@dataclass(frozen=True)
class ConstF:
    space: SpaceExpr


@dataclass(frozen=True)
class IdF:
    pass


@dataclass(frozen=True)
class SumF:
    left: "FunctorExpr"
    right: "FunctorExpr"


@dataclass(frozen=True)
class ProdF:
    left: "FunctorExpr"
    right: "FunctorExpr"


@dataclass(frozen=True)
class ListF:
    inner: "FunctorExpr"


FunctorExpr = TUnion[UnitF, ConstF, IdF, SumF, ProdF, ListF]


def words_functor(base: FiniteQO) -> FunctorExpr:
    """X -> 1 + base * X, whose initial algebra is finite words."""
    return SumF(UnitF(), ProdF(ConstF(base), IdF()))


def trees_functor(base: FiniteQO) -> FunctorExpr:
    """X -> base * X*, whose initial algebra is finite rooted trees."""
    return ProdF(ConstF(base), ListF(IdF()))


def _has_list(f: FunctorExpr) -> bool:
    if isinstance(f, ListF):
        return True
    if isinstance(f, (SumF, ProdF)):
        return _has_list(f.left) or _has_list(f.right)
    return False


def _grounded(f: FunctorExpr) -> bool:
    """Whether G(empty) is inhabited, so the algebra has depth-1 elements."""
    if isinstance(f, (UnitF, ConstF)):
        return True
    if isinstance(f, IdF):
        return False
    if isinstance(f, SumF):
        return _grounded(f.left) or _grounded(f.right)
    if isinstance(f, ProdF):
        return _grounded(f.left) and _grounded(f.right)
    if isinstance(f, ListF):
        return True  # the empty list
    raise FunctorError("not a functor: %r" % (f,))


# -- elements -------------------------------------------------------------------


@dataclass(frozen=True)
class MUnit:
    pass


@dataclass(frozen=True)
class MConst:
    point: PointTerm


@dataclass(frozen=True)
class MPair:
    left: "MuElement"
    right: "MuElement"


@dataclass(frozen=True)
class MInL:
    value: "MuElement"


@dataclass(frozen=True)
class MInR:
    value: "MuElement"


@dataclass(frozen=True)
class MList:
    items: Tuple["MuElement", ...]


MuElement = TUnion[MUnit, MConst, MPair, MInL, MInR, MList]


def mu_size(m: MuElement) -> int:
    if isinstance(m, (MUnit, MConst)):
        return 1
    if isinstance(m, MPair):
        return mu_size(m.left) + mu_size(m.right)
    if isinstance(m, (MInL, MInR)):
        return mu_size(m.value)
    if isinstance(m, MList):
        return 1 + sum(mu_size(x) for x in m.items)
    raise FunctorError("not an element: %r" % (m,))


key_rows(get_args(MuElement))
mu_key = canonical_key


def support(f: FunctorExpr, value: MuElement) -> Tuple[MuElement, ...]:
    """The set of identity-position contents of a one-step value (for
    polynomial+list functors, the occurrence set)."""
    out: List[MuElement] = []
    seen = set()

    def walk(g: FunctorExpr, v: MuElement):
        if isinstance(g, (UnitF, ConstF)):
            return
        if isinstance(g, IdF):
            if v not in seen:
                seen.add(v)
                out.append(v)
            return
        if isinstance(g, SumF):
            if isinstance(v, MInL):
                walk(g.left, v.value)
            elif isinstance(v, MInR):
                walk(g.right, v.value)
            else:
                raise FunctorError("value does not fit the sum functor")
            return
        if isinstance(g, ProdF):
            walk(g.left, v.left)
            walk(g.right, v.right)
            return
        if isinstance(g, ListF):
            for item in v.items:
                walk(g.inner, item)
            return
        raise FunctorError("not a functor: %r" % (g,))

    walk(f, value)
    return tuple(out)


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
    if _has_list(f) and size_cap is None:
        raise FunctorError("list functors need a size cap to enumerate")
    if not _grounded(f):
        raise FunctorError("the initial algebra is empty at finite depth")
    pool: Tuple[MuElement, ...] = ()
    for _ in range(depth):
        pool = _values_over(f, f, pool, size_cap)
    return tuple(sorted(set(pool), key=lambda m: (mu_size(m), mu_key(m))))


@lru_cache(maxsize=None)
def _const_points(space: SpaceExpr) -> Tuple[PointTerm, ...]:
    return enumerate_points(space, 1)


def _values_over(f: FunctorExpr, g: FunctorExpr, pool, size_cap) -> Tuple[MuElement, ...]:
    if isinstance(g, UnitF):
        return (MUnit(),)
    if isinstance(g, ConstF):
        return tuple(MConst(p) for p in _const_points(g.space))
    if isinstance(g, IdF):
        return tuple(pool)
    if isinstance(g, SumF):
        return (tuple(MInL(v) for v in _values_over(f, g.left, pool, size_cap))
                + tuple(MInR(v) for v in _values_over(f, g.right, pool, size_cap)))
    if isinstance(g, ProdF):
        return tuple(MPair(l, r)
                     for l in _values_over(f, g.left, pool, size_cap)
                     for r in _values_over(f, g.right, pool, size_cap)
                     if size_cap is None or mu_size(MPair(l, r)) <= size_cap)
    if isinstance(g, ListF):
        inners = _values_over(f, g.inner, pool, size_cap)
        out: List[MuElement] = []

        def extend(items: List[MuElement], budget: int):
            out.append(MList(tuple(items)))
            for v in inners:
                cost = mu_size(v)
                if cost <= budget:
                    items.append(v)
                    extend(items, budget - cost)
                    items.pop()

        extend([], (size_cap or 0) - 1)
        return tuple(out)
    raise FunctorError("not a functor: %r" % (g,))


# -- staged divisibility preorder -------------------------------------------------


def _lift_leq(g: FunctorExpr, base: Callable[[MuElement, MuElement], bool],
              x: MuElement, y: MuElement) -> bool:
    """The canonical order lift: componentwise on sums and products, the
    given relation at identity positions, Higman on list positions."""
    if isinstance(g, UnitF):
        return True
    if isinstance(g, ConstF):
        return point_leq(g.space, x.point, y.point)
    if isinstance(g, IdF):
        return base(x, y)
    if isinstance(g, SumF):
        if isinstance(x, MInL) and isinstance(y, MInL):
            return _lift_leq(g.left, base, x.value, y.value)
        if isinstance(x, MInR) and isinstance(y, MInR):
            return _lift_leq(g.right, base, x.value, y.value)
        return False
    if isinstance(g, ProdF):
        return (_lift_leq(g.left, base, x.left, y.left)
                and _lift_leq(g.right, base, x.right, y.right))
    if isinstance(g, ListF):
        return higman_leq(x.items, y.items,
                          lambda a, b: _lift_leq(g.inner, base, a, b))
    raise FunctorError("not a functor: %r" % (g,))


class DivisibilityTable:
    """Stage-n divisibility preorders over the bounded universes A_1..A_n:
    each stage is the transitive closure of the canonical order lift of the
    previous stage together with the support pairs child <= parent."""

    def __init__(self, f: FunctorExpr, depth: int, size_cap: Optional[int] = None):
        self.functor = f
        self.depth = depth
        self.size_cap = size_cap
        self.stages: List[Tuple[MuElement, ...]] = []
        self.relations: List[FrozenSet[Tuple[MuElement, MuElement]]] = []
        prev_rel: FrozenSet = frozenset()
        for n in range(1, depth + 1):
            universe = enumerate_mu(f, n, size_cap)
            rel = self._close(universe, prev_rel)
            self.stages.append(universe)
            self.relations.append(rel)
            prev_rel = rel

    def _close(self, universe, prev_rel) -> FrozenSet:
        base = lambda a, b: (a, b) in prev_rel
        pairs = set()
        for x, y in itertools.product(universe, repeat=2):
            if _lift_leq(self.functor, base, x, y):
                pairs.add((x, y))
        for y in universe:
            for c in support(self.functor, y):
                pairs.add((c, y))
        return _transitive_closure(universe, pairs)

    def universe(self, n: Optional[int] = None) -> Tuple[MuElement, ...]:
        return self.stages[(n or self.depth) - 1]

    def leq(self, a: MuElement, b: MuElement, n: Optional[int] = None) -> bool:
        return (a, b) in self.relations[(n or self.depth) - 1]


def _transitive_closure(universe, pairs):
    succ: Dict[MuElement, set] = {u: set() for u in universe}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in universe:
            grow = set()
            for b in succ[a]:
                grow |= succ[b]
            if not grow <= succ[a]:
                succ[a] |= grow
                changed = True
    return frozenset((a, b) for a in universe for b in succ[a])


def divisibility_leq(f: FunctorExpr, n: int, a: MuElement, b: MuElement,
                     size_cap: Optional[int] = None) -> bool:
    """The stage-n divisibility preorder on A_n."""
    return DivisibilityTable(f, n, size_cap).leq(a, b)


def check_preorder_stability(f: FunctorExpr, n: int,
                             size_cap: Optional[int] = None) -> bool:
    """Verify that composing the preorder with the substructure order and
    closing transitively adds no pairs at stage n."""
    table = DivisibilityTable(f, n, size_cap)
    universe = table.universe(n)
    rel = set(table.relations[n - 1])
    composed = set(rel)
    for a, b in rel:
        for c in universe:
            if substructure_leq(f, b, c):
                composed.add((a, c))
    closed = _transitive_closure(universe, composed)
    return closed == table.relations[n - 1]


# -- conversions to word / tree points --------------------------------------------


def _shape_error(f):
    return FunctorError(
        "only the word shape 1 + S*X and the tree shape S*List(X) unfold "
        "to a supported ambient space: %r" % (f,))


def word_base(f: FunctorExpr) -> FiniteQO:
    if (isinstance(f, SumF) and isinstance(f.left, UnitF)
            and isinstance(f.right, ProdF) and isinstance(f.right.left, ConstF)
            and isinstance(f.right.left.space, FiniteQO)
            and isinstance(f.right.right, IdF)):
        return f.right.left.space
    raise _shape_error(f)


def tree_base(f: FunctorExpr) -> FiniteQO:
    if (isinstance(f, ProdF) and isinstance(f.left, ConstF)
            and isinstance(f.left.space, FiniteQO)
            and isinstance(f.right, ListF) and isinstance(f.right.inner, IdF)):
        return f.left.space
    raise _shape_error(f)


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
    suffix-closed head patterns; for the tree shape they are subtree opens."""

    name = "unfold"

    def __init__(self, functor: FunctorExpr):
        self.functor = functor
        try:
            self.base = word_base(functor)
            self.kind = "words"
            self.space: SpaceExpr = Words(self.base)
        except FunctorError:
            self.base = tree_base(functor)
            self.kind = "trees"
            self.space = Trees(self.base)

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return div_exp_generators(self.functor, sources)


def div_exp_generators(f: FunctorExpr,
                       sources: Sequence[OpenExpr]) -> List[OpenExpr]:
    """Generators of the unfold rule: the substructure-upward closure of the
    one-step image of each subbasic open of the lifted topology.  Tree
    children patterns have at most two letters."""
    try:
        base = word_base(f)
    except FunctorError:
        return [TreeOpen(b, v) for b in _letter_subbasis(tree_base(f))
                for v in _children_menu(sources, 2)]
    # Whole is the image of the nil summand.
    return [Whole()] + [UpSubstructure(PrefixConcat(b, v))
                        for b in _letter_subbasis(base) for v in sources]


# -- textual functor grammar (see sexpr) ---------------------------------------


def parse_functor(expr) -> FunctorExpr:
    if isinstance(expr, str):
        if expr == "unit":
            return UnitF()
        if expr == "id":
            return IdF()
        if "(" in expr:
            return parse_functor(read(expr))
        raise SexprError("unknown functor token %r" % expr)
    if not expr or not isinstance(expr[0], str):
        raise SexprError("expected a functor form, got %r" % (expr,))
    if expr[0] == "mu":
        return parse_functor(shaped(expr, "(mu F)")[1])
    if expr[0] == "fin":
        return ConstF(parse_space(expr))
    return parse_row(expr, _FUNCTORS, "functor")


def _print_const(f: ConstF) -> str:
    # A (fin ...) space is a constant by itself; other spaces need (const S).
    text = print_space(f.space)
    return text if text.startswith("(fin ") else "(const %s)" % text


_FUNCTORS = grammar((ConstF, "(const S)"), (SumF, "(sum F G)"),
                    (ProdF, "(prod F G)"), (ListF, "(list F)"),
                    F=parse_functor, G=parse_functor)
PRINTERS.update({UnitF: lambda f: "unit", IdF: lambda f: "id",
                 ConstF: _print_const})
print_functor = print_term
